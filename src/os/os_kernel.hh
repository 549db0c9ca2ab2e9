/**
 * @file
 * Operating-system model for LogTM-SE virtualization (paper §4):
 *
 *  - processes with private page tables (the engine's translator);
 *  - thread scheduling: deschedule/schedule/migrate threads across
 *    hardware contexts, saving and restoring transactional state;
 *  - summary-signature maintenance: a per-process counting signature
 *    accumulates descheduled mid-transaction threads' saved R/W
 *    signatures; summaries are installed on every context running the
 *    process. A thread rescheduled mid-transaction runs with a
 *    summary that excludes its own contribution; the summary is only
 *    recomputed when that thread commits (engine hook);
 *  - page relocation: copy the page, remap, rewrite signatures with
 *    the new physical address (§4.2), rebuild summaries.
 */

#ifndef LOGTM_OS_OS_KERNEL_HH
#define LOGTM_OS_OS_KERNEL_HH

#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/config.hh"
#include "os/process.hh"
#include "sim/simulator.hh"
#include "tm/tm_engine.hh"

namespace logtm {

class OsKernel : public AddressTranslator
{
  public:
    OsKernel(Simulator &sim, TmEngine &engine,
             const SystemConfig &cfg);

    // ----- processes and threads -------------------------------------

    Asid createProcess();

    /** Create a thread in @p asid (not yet scheduled). */
    ThreadId createThread(Asid asid);

    /** Create a thread and schedule it on a free hardware context. */
    ThreadId spawnThread(Asid asid);

    // ----- scheduling -------------------------------------------------

    /** Schedule @p t on @p ctx (must be free). Restores saved
     *  transactional state and installs summary signatures. */
    void scheduleThread(ThreadId t, CtxId ctx);

    /** Schedule on any free context. @return the chosen context. */
    CtxId scheduleThread(ThreadId t);

    /** Deschedule @p t: saves mid-transaction signatures, merges them
     *  into the process summary and pushes the new summary to every
     *  context running the process. */
    void descheduleThread(ThreadId t);

    /** Deschedule + schedule on @p new_ctx (possibly another core). */
    void migrateThread(ThreadId t, CtxId new_ctx);

    /** Context a thread runs on (invalidCtx if descheduled). */
    CtxId contextOf(ThreadId t) const;

    /** Cost charged for a full deschedule+reschedule pair. */
    Cycle contextSwitchLatency() const
    { return cfg_.contextSwitchLatency; }

    // ----- paging -------------------------------------------------------

    /** AddressTranslator: demand-paged translation through the
     *  process page table. */
    PhysAddr translate(Asid asid, VirtAddr va) override;

    /**
     * Relocate the page holding @p va to a fresh physical frame
     * (models page-out/page-in at a new address, copy-on-write, ...).
     * Updates data, the mapping, every affected signature and the
     * process summaries. @return the new physical page number.
     */
    uint64_t relocatePage(Asid asid, VirtAddr va);

    Process &process(Asid asid) { return *processes_[asid]; }
    uint32_t freeContexts() const;

    /**
     * If thread @p t is currently descheduled, store @p resume and
     * run it (after the context-switch latency) once the thread is
     * scheduled again. @return true if parked, false if the thread is
     * scheduled and the caller should proceed immediately.
     */
    bool parkIfDescheduled(ThreadId t, std::function<void()> resume);

    /**
     * Deferred preemption: descheduleThread() requires the thread to
     * be quiescent (no memory operation in flight), so asynchronous
     * preemption is requested here and serviced by the thread API at
     * its next operation boundary (cf. the preemption-control
     * mechanisms of paper §4.1).
     */
    void requestPreempt(ThreadId t);
    bool preemptPending(ThreadId t) const
    { return preemptPending_.count(t) != 0; }

    /**
     * Operation-boundary hook used by ThreadCtx: services a pending
     * preemption (descheduling the thread), then parks if the thread
     * is descheduled. @return true if parked (resume stored).
     */
    bool preemptionPoint(ThreadId t, std::function<void()> resume);

  private:
    /** Recompute and install summaries on every scheduled thread of
     *  the process (each excluding that thread's own contribution). */
    void refreshSummaries(Process &proc);

    /** Summary of every contribution except thread @p t's own. */
    std::unique_ptr<Signature> summaryExcluding(Process &proc,
                                                ThreadId t);

    /** Engine commit hook: drop the committing thread's contribution
     *  and push updated summaries (paper §4.1). */
    void onCommitAfterMigration(ThreadId t);

    uint64_t allocFrame() { return nextFrame_++; }

    Simulator &sim_;
    TmEngine &engine_;
    const SystemConfig cfg_;
    std::vector<std::unique_ptr<Process>> processes_;
    std::vector<Asid> threadProcess_;   ///< ThreadId -> Asid
    /** Continuations of threads waiting to be rescheduled. */
    std::unordered_map<ThreadId, std::function<void()>> parked_;
    /** Threads with a deferred preemption outstanding. */
    std::unordered_set<ThreadId> preemptPending_;
    uint64_t nextFrame_ = 16;           ///< low frames left unmapped

    Counter &contextSwitches_;
    Counter &migrations_;
    Counter &pageRelocations_;
    Counter &summaryInstalls_;
};

} // namespace logtm

#endif // LOGTM_OS_OS_KERNEL_HH
