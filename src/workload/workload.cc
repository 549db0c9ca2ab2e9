#include "workload/workload.hh"

#include "common/log.hh"

namespace logtm {

WorkloadResult
Workload::run(const std::function<bool()> &earlyExit)
{
    logtm_assert(p_.numThreads > 0 &&
                 p_.numThreads <= sys_.config().numContexts(),
                 "thread count exceeds hardware contexts");

    asid_ = sys_.os().createProcess();
    setup();

    std::vector<Task> tasks;
    tasks.reserve(p_.numThreads);
    uint32_t done_count = 0;

    for (uint32_t i = 0; i < p_.numThreads; ++i) {
        const ThreadId t = sys_.os().spawnThread(asid_);
        ctxs_.push_back(std::make_unique<ThreadCtx>(sys_, t));
    }
    for (uint32_t i = 0; i < p_.numThreads; ++i) {
        tasks.push_back(threadMain(*ctxs_[i], i));
        tasks.back().setOnDone([&done_count]() { ++done_count; });
    }

    const Cycle start = sys_.now();
    // Stagger thread starts slightly to avoid artificial lockstep.
    for (uint32_t i = 0; i < p_.numThreads; ++i) {
        Task &task = tasks[i];
        sys_.sim().queue().scheduleIn(1 + i * 3,
                                      [&task]() { task.start(); },
                                      EventPriority::Cpu);
    }

    sys_.sim().runUntil([&]() {
        return done_count == p_.numThreads || (earlyExit && earlyExit());
    });
    logtm_assert(done_count == p_.numThreads || (earlyExit && earlyExit()),
                 "event queue drained before workload completion");

    WorkloadResult res;
    res.name = name();
    res.useTm = p_.useTm;
    res.cycles = sys_.now() - start;
    res.units = unitsDone_;
    res.unitsPerKcycle = res.cycles
        ? 1000.0 * static_cast<double>(res.units) /
            static_cast<double>(res.cycles)
        : 0.0;
    return res;
}

} // namespace logtm
