#include "sync/barrier.hh"

#include "common/log.hh"

namespace logtm {

Barrier::Barrier(TmEngine &engine, uint32_t participants)
    : engine_(engine), participants_(participants),
      episodes_(engine.simulator().stats().counter(
          "sync.barrierEpisodes")),
      waits_(engine.simulator().stats().counter("sync.barrierWaits"))
{
    logtm_assert(participants_ > 0, "barrier without participants");
}

void
Barrier::arrive(ThreadId t, std::function<void()> done)
{
    Simulator &sim = engine_.simulator();
    const Cycle now = sim.now();
    CycleAccounting &acct = engine_.accounting();

    if (waiting_.size() + 1 < participants_) {
        // Park: the context waits in the Barrier phase until release.
        ++waits_;
        const CtxId ctx = engine_.thread(t).ctx;
        if (ctx != invalidCtx)
            acct.beginWindow(ctx, now, CyclePhase::Barrier);
        waiting_.emplace_back(t, std::move(done));
        return;
    }

    // Last arrival: release every waiter in arrival order (a
    // deterministic sequence), then continue ourselves.
    ++episodes_;
    std::vector<std::pair<ThreadId, std::function<void()>>> release;
    release.swap(waiting_);
    for (auto &[wt, wdone] : release) {
        engine_.resumePhase(wt);
        sim.queue().scheduleIn(0, std::move(wdone), EventPriority::Cpu);
    }
    sim.queue().scheduleIn(0, std::move(done), EventPriority::Cpu);
}

} // namespace logtm
