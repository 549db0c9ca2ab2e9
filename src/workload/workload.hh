/**
 * @file
 * Workload base class and runner: spawns software threads, starts
 * their coroutines, and runs the simulation until every thread
 * finishes its share of the work units (paper §6.2 methodology:
 * throughput in well-defined units of work).
 */

#ifndef LOGTM_WORKLOAD_WORKLOAD_HH
#define LOGTM_WORKLOAD_WORKLOAD_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "workload/thread_api.hh"

namespace logtm {

struct WorkloadParams
{
    uint32_t numThreads = 32;   ///< software threads (<= contexts)
    bool useTm = true;          ///< transactions vs locks
    uint64_t totalUnits = 512;  ///< units of work across all threads
    uint64_t seed = 1;
    /** Multiplier on the workload's non-transactional think time. */
    double thinkScale = 1.0;
};

struct WorkloadResult
{
    std::string name;
    bool useTm = false;
    Cycle cycles = 0;           ///< simulated time for the run
    uint64_t units = 0;         ///< units of work completed
    /** Throughput in units per thousand cycles. */
    double unitsPerKcycle = 0.0;
};

class Workload
{
  public:
    Workload(TmSystem &sys, const WorkloadParams &params)
        : sys_(sys), p_(params)
    {
    }

    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /** Allocate and initialize shared data (direct, untimed). */
    virtual void setup() {}

    /** Per-thread program; must complete unitsFor(idx) work units. */
    virtual Task threadMain(ThreadCtx &tc, uint32_t idx) = 0;

    /**
     * Spawn threads, execute, and collect the result.
     *
     * @p earlyExit (optional) is polled with the completion condition;
     * when it returns true the run stops without requiring every
     * thread to finish — used by the chaos harness to bail out once a
     * watchdog or oracle has already condemned the run.
     */
    WorkloadResult run(const std::function<bool()> &earlyExit = {});

    uint64_t unitsCompleted() const { return unitsDone_; }

    Asid asid() const { return asid_; }

  protected:
    /** Units thread @p idx must complete (even split + remainder). */
    uint64_t
    unitsFor(uint32_t idx) const
    {
        return p_.totalUnits / p_.numThreads +
            (idx < p_.totalUnits % p_.numThreads ? 1 : 0);
    }

    /** Scale a think time by the configured multiplier. */
    Cycle
    think(Cycle base) const
    {
        return static_cast<Cycle>(static_cast<double>(base) *
                                  p_.thinkScale);
    }

    /** Write an initial value directly (no timing). */
    void
    poke(VirtAddr va, uint64_t value)
    {
        sys_.mem().data().store(sys_.os().translate(asid_, va), value);
    }

    void bumpUnits() { ++unitsDone_; }

    TmSystem &sys_;
    WorkloadParams p_;
    Asid asid_ = 0;
    uint64_t unitsDone_ = 0;
    std::vector<std::unique_ptr<ThreadCtx>> ctxs_;
};

/** Spread structure elements one cache block apart. */
constexpr VirtAddr
blockSlot(VirtAddr base, uint64_t index)
{
    return base + index * blockBytes;
}

/** Pack 8-byte words densely. */
constexpr VirtAddr
wordSlot(VirtAddr base, uint64_t index)
{
    return base + index * 8;
}

/**
 * Space contended records one kilobyte apart (the CBS macro-block
 * grain): real parallel programs pad hot records to avoid false
 * sharing, which also keeps coarse signatures precise.
 */
constexpr VirtAddr
paddedSlot(VirtAddr base, uint64_t index)
{
    // 17 blocks: >= the 1 KB CBS grain, and coprime with small
    // power-of-two signatures so padded arrays do not fold onto a
    // handful of bit-select indices.
    return base + index * 17 * blockBytes;
}

} // namespace logtm

#endif // LOGTM_WORKLOAD_WORKLOAD_HH
