/**
 * @file
 * TmEngine: the transactional-memory engine base class. The base
 * class IS the LogTM-SE engine — eager version management (in-place
 * stores + per-thread undo log) and eager conflict detection
 * (signatures checked at coherence time, NACK/stall resolution) — and
 * exposes virtual policy seams over begin/read/write/commit/abort and
 * conflict resolution that the alternative backends override
 * (tm/buffered_engine.hh, tm/requester_wins_engine.hh,
 * tm/lazy_engine.hh; constructed via tm/engine_factory.hh).
 *
 * Base-class responsibilities (paper §2-§4):
 *  - transactional begin/commit/abort with open and closed nesting;
 *  - memory operations that check the summary signature on every
 *    reference, check SMT-sibling signatures locally, insert into the
 *    thread's signatures, write undo records (filtered by the log
 *    filter) and apply values to the DataStore;
 *  - conflict resolution: stall/retry with exponential backoff and
 *    LogTM's timestamp-based deadlock avoidance (abort on possible
 *    cycle), or an abort-always ablation policy;
 *  - servicing coherence-side signature checks (ConflictChecker);
 *  - OS hooks: bind/unbind threads to hardware contexts (saving and
 *    restoring signatures), summary-signature install, and signature
 *    rewriting for page relocation.
 */

#ifndef LOGTM_TM_TM_ENGINE_HH
#define LOGTM_TM_TM_ENGINE_HH

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "mem/memory_system.hh"
#include "obs/cycle_accounting.hh"
#include "sim/simulator.hh"
#include "tm/tx_thread_state.hh"

namespace logtm {

class TxObserver;
class PersistModel;
class HybridModel;

/** Completion status of a transactional memory operation. */
enum class OpStatus : uint8_t {
    Ok,
    Aborted,  ///< the enclosing transaction is doomed; unwind the body
};

/**
 * Virtual-to-physical translation hook, implemented by the OS model.
 * The default identity translation keeps the engine usable standalone.
 */
class AddressTranslator
{
  public:
    virtual ~AddressTranslator() = default;
    virtual PhysAddr translate(Asid asid, VirtAddr va) = 0;
};

class IdentityTranslator : public AddressTranslator
{
  public:
    PhysAddr translate(Asid, VirtAddr va) override { return va; }
};

class TmEngine : public ConflictChecker
{
  public:
    using LoadDoneFn = std::function<void(OpStatus, uint64_t)>;
    using StoreDoneFn = std::function<void(OpStatus)>;
    using DoneFn = std::function<void()>;

    TmEngine(Simulator &sim, MemorySystem &mem,
             const SystemConfig &cfg);
    ~TmEngine() override = default;

    // ----- thread & context management (OS-facing) -------------------

    /** Create a software thread in address space @p asid. */
    ThreadId createThread(Asid asid);

    /** Schedule thread @p t onto hardware context @p ctx, restoring
     *  saved signatures if it was descheduled mid-transaction. */
    void bindThread(ThreadId t, CtxId ctx);

    /** Deschedule thread @p t: save its signatures, clear the
     *  hardware context and the log filter. Must be called at a
     *  memory-operation boundary. */
    void unbindThread(ThreadId t);

    /** Install (or clear, with nullptr) a context's summary sig. */
    void setSummary(CtxId ctx, std::unique_ptr<Signature> summary);

    /** Saved signatures of a descheduled thread (OS summary merge). */
    const Signature *savedReadSig(ThreadId t) const;
    const Signature *savedWriteSig(ThreadId t) const;

    /** OS trap invoked when a thread that migrated mid-transaction
     *  commits (summary recompute, paper §4.1). */
    void setCommitMigrationHook(std::function<void(ThreadId)> hook)
    { commitMigrationHook_ = std::move(hook); }

    /** Address translation hook (identity by default). */
    void setTranslator(AddressTranslator *xlate) { translator_ = xlate; }

    /** Page relocation (paper §4.2): re-insert blocks of
     *  @p old_ppage into signatures at @p new_ppage for every
     *  scheduled or descheduled transactional thread of @p asid. */
    void rewritePageInSignatures(Asid asid, uint64_t old_ppage,
                                 uint64_t new_ppage);

    // ----- transactional API (workload-facing) -----------------------

    /** Begin a (possibly nested) transaction. Synchronous. */
    virtual void txBegin(ThreadId t, bool open = false);

    /** Commit the innermost transaction; @p done runs after the
     *  commit latency (plus any OS summary trap). Redo-store engines
     *  publish their write buffer synchronously before this returns. */
    virtual void txCommit(ThreadId t, DoneFn done);

    /**
     * Abort exactly one frame of a doomed transaction: walk the top
     * frame's undo records LIFO, restore values, restore the saved
     * signature, pop the frame. After the walk, if the conflicting
     * address still hits the restored signatures, the thread stays
     * doomed (the caller propagates the abort to the parent level).
     * Redo-store engines discard the frame's buffer instead of walking
     * undo records.
     */
    virtual void txAbortFrame(ThreadId t, DoneFn done);

    /** Randomized exponential backoff after an abort. */
    void abortBackoff(ThreadId t, DoneFn done);

    /** Request an explicit user abort of the current transaction. */
    void txRequestAbort(ThreadId t);

    /** Chaos hook (src/check): doom @p t's current transaction with a
     *  spurious capacity abort, as if the capacity model overflowed.
     *  No-op outside a transaction or when already doomed. */
    void injectCapacityAbort(ThreadId t);

    /** Fallback-lock quiesce (src/hybrid): doom @p t's current
     *  transaction with FallbackLockConflict. No-op outside a
     *  transaction or when already doomed. */
    void quiesceAbort(ThreadId t);

    bool inTx(ThreadId t) const { return threads_[t]->inTx(); }
    bool doomed(ThreadId t) const { return threads_[t]->doomed; }
    size_t nestingDepth(ThreadId t) const
    { return threads_[t]->log.depth(); }

    // ----- memory operations ------------------------------------------

    /** Transactional (or plain, outside a tx) load of an 8-byte word. */
    void load(ThreadId t, VirtAddr va, LoadDoneFn done);

    /**
     * Load-exclusive: a load that acquires write ownership (GETM)
     * up front, inserting the block into both signatures and logging
     * its old value. The idiom for read-modify-write transactions:
     * it avoids the dueling-upgrades pathology in which two
     * transactions read a hot block in S and deadlock upgrading.
     */
    void loadExclusive(ThreadId t, VirtAddr va, LoadDoneFn done);

    /** Transactional (or plain) store of an 8-byte word. */
    void store(ThreadId t, VirtAddr va, uint64_t value, StoreDoneFn done);

    /** Escape-action accesses (paper §6.2): bypass signatures and the
     *  undo log entirely, for system calls / allocator traffic inside
     *  transactions. */
    void escapeLoad(ThreadId t, VirtAddr va, LoadDoneFn done);
    void escapeStore(ThreadId t, VirtAddr va, uint64_t value,
                     StoreDoneFn done);

    /**
     * Non-transactional atomic read-modify-write (spinlocks). @p op
     * maps the old value to the new value atomically once the block
     * is held exclusively; @p done receives the old value.
     */
    void atomicRmw(ThreadId t, VirtAddr va,
                   std::function<uint64_t(uint64_t)> op, LoadDoneFn done);

    // ----- ConflictChecker (memory-system-facing) ---------------------

    ConflictVerdict checkRemote(CoreId core, PhysAddr block,
                                AccessType remote_type, Asid req_asid,
                                CtxId req_ctx, uint64_t req_ts) override;
    bool inAnyLocalSig(CoreId core, PhysAddr block) const override;

    // ----- verification hooks (src/check) -----------------------------

    /** Attach a passive verification observer (nullptr detaches).
     *  Hooks fire synchronously; see tm/tx_observer.hh. */
    void setObserver(TxObserver *observer) { observer_ = observer; }
    TxObserver *observer() { return observer_; }

    /** Attach the hybrid capacity/fallback model (src/hybrid/;
     *  nullptr detaches). Consulted synchronously on each successful
     *  transactional access; never constructed when hybrid TM is off,
     *  so the default path stays byte-identical. */
    void setHybridModel(HybridModel *h) { hybrid_ = h; }
    HybridModel *hybridModel() { return hybrid_; }

    /** Attach the durability model (src/pm; nullptr detaches). Like
     *  the observer it is strictly passive — hooks fire synchronously
     *  at begin/log-append/store/commit/abort and never change
     *  timing, so a run without one is byte-identical. */
    void setPersistModel(PersistModel *pm) { pm_ = pm; }
    PersistModel *persistModel() { return pm_; }

    /**
     * TEST-ONLY: force the signature path to report "no conflict"
     * for (owner context, block) pairs the hook accepts, creating a
     * deliberate signature false negative. Exists so the oracle's
     * soundness check can be proven able to fail (negative
     * self-test); never set outside tests.
     */
    using SigBypassFn = std::function<bool(CtxId owner, PhysAddr block)>;
    void setSigBypassForTest(SigBypassFn fn)
    { sigBypass_ = std::move(fn); }

    // ----- introspection ----------------------------------------------

    TxThread &thread(ThreadId t) { return *threads_[t]; }
    uint32_t numThreads() const
    { return static_cast<uint32_t>(threads_.size()); }
    /** Always-on per-context cycle classification (obs layer). The
     *  engine drives every transition; it never perturbs the run. */
    CycleAccounting &accounting() { return acct_; }
    const CycleAccounting &accounting() const { return acct_; }
    /** End a wait window (commit/rollback/backoff/stall/barrier) for
     *  @p t's context: back to TxWork or NonTx. Safe across
     *  migration — a no-op while the thread is descheduled. Also the
     *  hook sync primitives use when they unpark a waiter. */
    void resumePhase(ThreadId t);
    /** Memory operations issued but not yet completed. Fault
     *  injection gates page relocation on quiescence: an in-flight
     *  access holds a physical address across the remap. */
    uint32_t opsInFlight() const { return opsInFlight_; }
    MemorySystem &memory() { return mem_; }
    Simulator &simulator() { return sim_; }
    HwContext &context(CtxId c) { return *contexts_[c]; }
    uint32_t numContexts() const
    { return static_cast<uint32_t>(contexts_.size()); }
    const SystemConfig &config() const { return cfg_; }

  protected:
    struct OpRequest
    {
        ThreadId t;
        VirtAddr va;
        AccessType type;
        bool escape = false;
        bool loadForWrite = false;
        uint64_t storeValue = 0;
        LoadDoneFn loadDone;
        StoreDoneFn storeDone;
        std::function<uint64_t(uint64_t)> rmwOp;
        uint32_t retries = 0;
    };

    // ----- policy seams (overridden by alternative engines) -----------

    /**
     * Conflict-resolution seam. Called from checkRemote for every
     * bound, in-transaction, same-ASID holder whose signatures the
     * request hits ("relevant" conflict), with doomed holders
     * included. The default implements LogTM-SE: record the conflict
     * in @p verdict so the coherence layer NACKs the requester, and
     * run the timestamp deadlock-avoidance bookkeeping.
     * @p req_ts is ~0ull when the requester is not transactional;
     * @p hit_r / @p hit_w say which of the holder's signatures hit.
     */
    virtual void onRelevantConflict(ConflictVerdict &verdict,
                                    HwContext &ctx, TxThread &holder,
                                    PhysAddr block,
                                    AccessType remote_type,
                                    CtxId req_ctx, uint64_t req_ts,
                                    bool hit_r, bool hit_w);

    /**
     * Version-management seam: commit one memory access that passed
     * every conflict check. The default implements eager versioning —
     * stores go to the DataStore in place after an undo-log append;
     * loads read the DataStore. @p extra carries latency already owed
     * (hybrid instrumentation); implementations add their own and
     * must finish with finishOp (possibly after a delay).
     */
    virtual void applyAccess(const std::shared_ptr<OpRequest> &op,
                             TxThread &thr, HwContext &ctx, PhysAddr pa,
                             PhysAddr block, bool in_tx, Cycle extra);

    /**
     * Timestamp a memory request advertises to remote conflict
     * checks (L1Cache::Request::txTs; ~0 = non-transactional). The
     * default reports the thread's LogTM timestamp whenever it is
     * inside a transaction — escape accesses included, because an
     * eager NACK against them still participates in deadlock
     * avoidance. Redo-store engines report ~0 for escape accesses:
     * they hit the DataStore immediately, and the lazy engine must
     * treat them like plain stores (see LazyEngine).
     */
    virtual uint64_t requestTimestamp(const TxThread &thr,
                                      bool in_tx) const
    { (void)in_tx; return thr.inTx() ? thr.timestamp : ~0ull; }

    /** Causes whose partial abort can never resolve the conflict:
     *  the whole nest unwinds. */
    static bool
    forcesFullUnwind(AbortCause cause)
    {
        return cause == AbortCause::Capacity ||
            cause == AbortCause::FallbackLockConflict ||
            cause == AbortCause::RemoteAbort ||
            cause == AbortCause::CommitInvalidate;
    }

    void issueOp(std::shared_ptr<OpRequest> op);
    void finishOp(const std::shared_ptr<OpRequest> &op, OpStatus status,
                  uint64_t value);
    void retryOp(std::shared_ptr<OpRequest> op, bool conflict_backoff);
    /** Check SMT siblings on the same core; returns a verdict like a
     *  remote NACK. */
    ConflictVerdict checkSiblings(const TxThread &thr, PhysAddr block,
                                  AccessType type);
    /** Apply the deadlock-avoidance / conflict policy to a NACK.
     *  @return true if the thread was doomed. */
    bool onConflictNack(TxThread &thr, uint64_t nacker_ts,
                        CtxId nacker_ctx, PhysAddr block,
                        AccessType type, uint32_t retries);
    void doom(TxThread &thr, AbortCause cause, PhysAddr addr,
              AccessType type, bool addr_valid);
    /** Per-cause abort counter, registered lazily for hybrid causes
     *  so disabled runs serialize exactly the seed's stats. */
    Counter &causeCounter(AbortCause cause);
    /** Count a NACK-induced stall and publish the event. */
    void noteStall(const TxThread &thr, PhysAddr block,
                   AccessType type, CtxId nacker);
    /** Count a summary-signature trap and publish the event. */
    void noteSummaryTrap(const TxThread &thr, PhysAddr block);
    Cycle backoffDelay(TxThread &thr);
    PhysAddr translate(const TxThread &thr, VirtAddr va)
    { return translator_->translate(thr.asid, va); }
    /** Classify a signature-reported conflict for FP statistics and
     *  publish the attribution event (@p req_ctx = requester). */
    void classifyConflict(const HwContext &ctx, PhysAddr block,
                          AccessType remote_type, CtxId req_ctx);

    Simulator &sim_;
    MemorySystem &mem_;
    const SystemConfig cfg_;
    IdentityTranslator identity_;
    AddressTranslator *translator_;
    std::function<void(ThreadId)> commitMigrationHook_;
    TxObserver *observer_ = nullptr;
    PersistModel *pm_ = nullptr;
    HybridModel *hybrid_ = nullptr;
    SigBypassFn sigBypass_;
    uint32_t opsInFlight_ = 0;
    CycleAccounting acct_;

    std::vector<std::unique_ptr<HwContext>> contexts_;
    std::vector<std::unique_ptr<TxThread>> threads_;

    // Statistics (paper Tables 2/3, Figure 4 inputs).
    Counter &commits_;
    Counter &aborts_;
    Counter &stalls_;
    Counter &conflictsTrue_;
    Counter &conflictsFalse_;
    Counter &summaryTraps_;
    Counter &logRecords_;
    Counter &logFilterHits_;
    Counter &beginsOuter_;
    Counter &beginsNested_;
    Counter &openCommits_;
    /** Per-cause abort counters ("tm.abortsByCause.<cause>"),
     *  indexed by AbortCause; their sum equals tm.aborts. Hybrid and
     *  engine-specific causes (Capacity and later) register lazily so
     *  runs that never see them serialize the seed's exact stats. */
    std::array<Counter *, 9> abortsByCause_{};
    Sampler &readSetSize_;
    Sampler &writeSetSize_;
    Sampler &undoRecordsPerTx_;
};

} // namespace logtm

#endif // LOGTM_TM_TM_ENGINE_HH
