/**
 * @file
 * Microbenchmark workload: each unit of work transactionally reads a
 * few shared counters and increments others. Knobs for contention
 * (counter pool size), transaction size, and think time. Used by the
 * integration tests (atomicity/serializability checks) and the
 * ablation benches.
 */

#ifndef LOGTM_WORKLOAD_MICROBENCH_HH
#define LOGTM_WORKLOAD_MICROBENCH_HH

#include "workload/workload.hh"

namespace logtm {

struct MicrobenchConfig
{
    uint32_t numCounters = 64;   ///< shared pool (smaller = hotter)
    uint32_t readsPerTx = 2;
    uint32_t writesPerTx = 2;    ///< counters incremented per unit
    /** >0: writes revisit a per-thread working set of this many
     *  counters (exercises the log filter: repeated writes to the
     *  same blocks within one transaction). */
    uint32_t writeWorkingSet = 0;
    Cycle thinkCycles = 100;     ///< non-transactional work per unit
    bool blockSpread = true;     ///< one counter per cache block
    /** >0: all threads rendezvous at a barrier after every this many
     *  units (requires totalUnits % numThreads == 0 so every thread
     *  reaches each episode). Exercises the `barrier` cycle bucket;
     *  0 keeps the classic barrier-free behavior. */
    uint32_t barrierEveryUnits = 0;
};

class MicrobenchWorkload : public Workload
{
  public:
    MicrobenchWorkload(TmSystem &sys, const WorkloadParams &params,
                       const MicrobenchConfig &mb = {})
        : Workload(sys, params), mb_(mb)
    {
    }

    std::string name() const override { return "Microbench"; }
    void setup() override;
    Task threadMain(ThreadCtx &tc, uint32_t idx) override;

    /** Sum of all counters (read directly; for invariant checks). */
    uint64_t counterSum();

    /** Total committed increments (each unit commits writesPerTx). */
    uint64_t expectedIncrements() const { return committedIncrements_; }

    VirtAddr counterAddr(uint32_t i) const;

  private:
    MicrobenchConfig mb_;
    static constexpr VirtAddr countersBase_ = 0x10'0000;
    static constexpr VirtAddr lockBase_ = 0x20'0000;
    uint64_t committedIncrements_ = 0;
    std::unique_ptr<Spinlock> lock_;
    std::unique_ptr<Barrier> barrier_;
};

} // namespace logtm

#endif // LOGTM_WORKLOAD_MICROBENCH_HH
