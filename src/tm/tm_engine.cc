#include "tm/tm_engine.hh"

#include <algorithm>
#include <string>

#include "common/log.hh"
#include "common/trace.hh"
#include "obs/attribution.hh"
#include "pm/persist_model.hh"
#include "sig/signature_factory.hh"
#include "tm/hybrid_model.hh"
#include "tm/tx_observer.hh"

namespace logtm {

// obs reports abort causes by value without depending on the TM
// layer; keep the two enumerations in lock step.
static_assert(static_cast<uint8_t>(AbortCause::None) == 0 &&
              static_cast<uint8_t>(AbortCause::DeadlockCycle) == 1 &&
              static_cast<uint8_t>(AbortCause::PolicyAbort) == 2 &&
              static_cast<uint8_t>(AbortCause::SummaryConflict) == 3 &&
              static_cast<uint8_t>(AbortCause::Explicit) == 4 &&
              static_cast<uint8_t>(AbortCause::Capacity) == 5 &&
              static_cast<uint8_t>(AbortCause::FallbackLockConflict)
                  == 6 &&
              static_cast<uint8_t>(AbortCause::RemoteAbort) == 7 &&
              static_cast<uint8_t>(AbortCause::CommitInvalidate) == 8,
              "AbortCause order must match obs::abortCauseName");

// Hybrid abort causes (>= this value) register their counters lazily
// on first use, so a run that never sees them serializes exactly the
// same stats as the pre-hybrid seed.
static constexpr size_t numEagerAbortCauses = 5;

TmEngine::TmEngine(Simulator &sim, MemorySystem &mem,
                             const SystemConfig &cfg)
    : sim_(sim), mem_(mem), cfg_(cfg), translator_(&identity_),
      commits_(sim.stats().counter("tm.commits")),
      aborts_(sim.stats().counter("tm.aborts")),
      stalls_(sim.stats().counter("tm.stalls")),
      conflictsTrue_(sim.stats().counter("tm.conflictsTrue")),
      conflictsFalse_(sim.stats().counter("tm.conflictsFalse")),
      summaryTraps_(sim.stats().counter("tm.summaryTraps")),
      logRecords_(sim.stats().counter("tm.logRecords")),
      logFilterHits_(sim.stats().counter("tm.logFilterHits")),
      beginsOuter_(sim.stats().counter("tm.beginsOuter")),
      beginsNested_(sim.stats().counter("tm.beginsNested")),
      openCommits_(sim.stats().counter("tm.openCommits")),
      readSetSize_(sim.stats().sampler("tm.readSetBlocks")),
      writeSetSize_(sim.stats().sampler("tm.writeSetBlocks")),
      undoRecordsPerTx_(sim.stats().sampler("tm.undoRecordsPerTx"))
{
    for (size_t c = 0; c < numEagerAbortCauses; ++c) {
        abortsByCause_[c] = &sim.stats().counter(
            std::string("tm.abortsByCause.") +
            abortCauseName(static_cast<uint8_t>(c)));
    }
    const uint32_t n = cfg_.numContexts();
    for (CtxId c = 0; c < n; ++c) {
        auto ctx = std::make_unique<HwContext>();
        ctx->id = c;
        ctx->core = c / cfg_.threadsPerCore;
        ctx->readSig = makeSignature(cfg_.signature);
        ctx->writeSig = makeSignature(cfg_.signature);
        ctx->readFast.bind(ctx->readSig.get());
        ctx->writeFast.bind(ctx->writeSig.get());
        contexts_.push_back(std::move(ctx));
    }
    acct_.init(n, sim_.now());
    mem_.setConflictChecker(this);
}

// --------------------------------------------------------------------
// Thread and context management
// --------------------------------------------------------------------

ThreadId
TmEngine::createThread(Asid asid)
{
    auto thr = std::make_unique<TxThread>();
    thr->id = static_cast<ThreadId>(threads_.size());
    thr->asid = asid;
    thr->filter = LogFilter(
        cfg_.logFilterEnabled ? cfg_.logFilterEntries : 0);
    threads_.push_back(std::move(thr));
    return threads_.back()->id;
}

void
TmEngine::bindThread(ThreadId t, CtxId ctx_id)
{
    TxThread &thr = *threads_[t];
    HwContext &ctx = *contexts_[ctx_id];
    logtm_assert(ctx.thread == invalidThread, "context already bound");
    logtm_assert(thr.ctx == invalidCtx, "thread already scheduled");
    ctx.thread = t;
    thr.ctx = ctx_id;

    if (thr.inTx()) {
        logtm_assert(thr.savedRead && thr.savedWrite,
                     "mid-tx thread without saved signatures");
        ctx.readSig->clear();
        ctx.readSig->unionWith(*thr.savedRead);
        ctx.writeSig->clear();
        ctx.writeSig->unionWith(*thr.savedWrite);
        ctx.shadowRead = thr.savedShadowRead;
        ctx.shadowWrite = thr.savedShadowWrite;
        thr.savedRead.reset();
        thr.savedWrite.reset();
        thr.savedShadowRead.clear();
        thr.savedShadowWrite.clear();
        thr.rescheduledDuringTx = true;
    }
    acct_.onSchedIn(ctx_id, t, sim_.now(), thr.inTx());
}

void
TmEngine::unbindThread(ThreadId t)
{
    TxThread &thr = *threads_[t];
    logtm_assert(thr.ctx != invalidCtx, "unbinding descheduled thread");
    HwContext &ctx = *contexts_[thr.ctx];
    acct_.onSchedOut(thr.ctx, sim_.now());

    if (thr.inTx()) {
        // Paper §4.1: save the signatures to the log's current
        // header; we keep them beside the log (equivalent).
        thr.savedRead = ctx.readSig->clone();
        thr.savedWrite = ctx.writeSig->clone();
        thr.savedShadowRead = ctx.shadowRead;
        thr.savedShadowWrite = ctx.shadowWrite;
    }
    ctx.readSig->clear();
    ctx.writeSig->clear();
    ctx.shadowRead.clear();
    ctx.shadowWrite.clear();
    ctx.thread = invalidThread;
    thr.ctx = invalidCtx;
    // The log filter is an optimization; clearing is always safe.
    thr.filter.clear();
}

void
TmEngine::setSummary(CtxId ctx, std::unique_ptr<Signature> summary)
{
    contexts_[ctx]->summary = std::move(summary);
    contexts_[ctx]->summaryFast.bind(contexts_[ctx]->summary.get());
}

const Signature *
TmEngine::savedReadSig(ThreadId t) const
{
    return threads_[t]->savedRead.get();
}

const Signature *
TmEngine::savedWriteSig(ThreadId t) const
{
    return threads_[t]->savedWrite.get();
}

void
TmEngine::rewritePageInSignatures(Asid asid, uint64_t old_ppage,
                                       uint64_t new_ppage)
{
    const PhysAddr old_base = old_ppage << pageBytesLog2;
    const PhysAddr new_base = new_ppage << pageBytesLog2;

    auto rewrite = [&](Signature &sig) {
        // Paper §4.2: walk the signature, testing each block of the
        // old page; re-insert hits at the new physical address. The
        // updated signature holds both old and new addresses.
        SigFastRef fast;
        fast.bind(&sig);
        for (uint64_t off = 0; off < pageBytes; off += blockBytes) {
            if (fast.mayContain(old_base + off))
                fast.insert(new_base + off);
        }
    };
    auto rewriteShadow = [&](ExactShadow &shadow) {
        for (uint64_t off = 0; off < pageBytes; off += blockBytes) {
            if (shadow.contains(old_base + off))
                shadow.insert(new_base + off);
        }
    };

    for (auto &ctx : contexts_) {
        if (ctx->thread == invalidThread)
            continue;
        if (threads_[ctx->thread]->asid != asid)
            continue;
        rewrite(*ctx->readSig);
        rewrite(*ctx->writeSig);
        rewriteShadow(ctx->shadowRead);
        rewriteShadow(ctx->shadowWrite);
    }
    for (auto &thr : threads_) {
        if (thr->asid != asid || !thr->savedRead)
            continue;
        rewrite(*thr->savedRead);
        rewrite(*thr->savedWrite);
        rewriteShadow(thr->savedShadowRead);
        rewriteShadow(thr->savedShadowWrite);
    }
}

// --------------------------------------------------------------------
// Transactional control
// --------------------------------------------------------------------

void
TmEngine::txBegin(ThreadId t, bool open)
{
    TxThread &thr = *threads_[t];
    logtm_assert(thr.ctx != invalidCtx, "txBegin on descheduled thread");
    logtm_assert(!thr.doomed, "txBegin while doomed");
    HwContext &ctx = *contexts_[thr.ctx];
    acct_.txBegin(thr.ctx, sim_.now(), t);

    RegisterCheckpoint ckpt{sim_.now()};
    if (!thr.inTx()) {
        ++beginsOuter_;
        logtm_trace(TraceCat::Tm, sim_.now(), "t%u txBegin", t);
        // LogTM keeps the timestamp across retries of one transaction
        // (older transactions eventually win; no starvation).
        if (thr.timestamp == ~0ull) {
            thr.timestamp =
                sim_.now() * contexts_.size() + thr.ctx;
        }
        thr.log.pushFrame(ckpt, open);
        thr.filter.clear();
        logtm_obs_emit(sim_.events(),
                       ObsEvent{.cycle = sim_.now(),
                             .kind = EventKind::TxBegin,
                             .ctx = thr.ctx, .thread = t,
                             .a = 1, .b = open ? 1u : 0u});
        if (observer_)
            observer_->onTxBegin(t, thr.asid, 1, open);
        if (pm_)
            pm_->onTxBegin(t, thr.asid, 1, open, sim_.now());
        return;
    }

    // Nested begin: save the current signatures into the child's
    // frame header and clear the filter so the child re-logs blocks.
    ++beginsNested_;
    LogFrame &frame = thr.log.pushFrame(ckpt, open);
    frame.savedRead = ctx.readSig->clone();
    frame.savedWrite = ctx.writeSig->clone();
    frame.savedShadowRead = ctx.shadowRead;
    frame.savedShadowWrite = ctx.shadowWrite;
    thr.filter.clear();
    logtm_obs_emit(sim_.events(),
                   ObsEvent{.cycle = sim_.now(),
                         .kind = EventKind::TxBegin,
                         .ctx = thr.ctx, .thread = t,
                         .a = thr.log.depth(), .b = open ? 1u : 0u});
    if (observer_)
        observer_->onTxBegin(t, thr.asid, thr.log.depth(), open);
    if (pm_) {
        pm_->onTxBegin(t, thr.asid,
                       static_cast<uint32_t>(thr.log.depth()), open,
                       sim_.now());
    }
}

void
TmEngine::txCommit(ThreadId t, DoneFn done)
{
    TxThread &thr = *threads_[t];
    logtm_assert(thr.inTx(), "commit without transaction");
    logtm_assert(!thr.doomed, "commit of a doomed transaction");
    logtm_assert(thr.ctx != invalidCtx, "commit on descheduled thread");
    HwContext &ctx = *contexts_[thr.ctx];

    if (thr.log.depth() > 1) {
        const bool open_commit = thr.log.top().open;
        acct_.txCommitTop(thr.ctx, sim_.now(), t, !open_commit);
        if (observer_)
            observer_->onNestedCommit(t, thr.asid, open_commit);
        if (pm_)
            pm_->onNestedCommit(t, open_commit, sim_.now());
        if (open_commit) {
            // Open commit: release isolation on child-only accesses
            // by restoring the parent's signatures; the child's undo
            // records are discarded (its effects are permanent).
            ++openCommits_;
            LogFrame frame = thr.log.popFrame();
            ctx.readSig->clear();
            ctx.readSig->unionWith(*frame.savedRead);
            ctx.writeSig->clear();
            ctx.writeSig->unionWith(*frame.savedWrite);
            ctx.shadowRead = frame.savedShadowRead;
            ctx.shadowWrite = frame.savedShadowWrite;
        } else {
            // Closed commit: merge into the parent.
            thr.log.mergeTopIntoParent();
        }
        sim_.queue().scheduleIn(cfg_.commitLatency,
                                [this, t, done = std::move(done)]() {
            resumePhase(t);
            done();
        }, EventPriority::Cpu);
        return;
    }

    // Outermost commit: a fast, local operation (paper §2).
    ++commits_;
    acct_.txCommitTop(thr.ctx, sim_.now(), t, false);
    logtm_trace(TraceCat::Tm, sim_.now(),
                "t%u commit (reads=%zu writes=%zu undo=%zu)", t,
                ctx.shadowRead.size(), ctx.shadowWrite.size(),
                thr.log.totalRecords());
    readSetSize_.sample(static_cast<double>(ctx.shadowRead.size()));
    writeSetSize_.sample(static_cast<double>(ctx.shadowWrite.size()));
    undoRecordsPerTx_.sample(
        static_cast<double>(thr.log.totalRecords()));
    logtm_obs_emit(sim_.events(),
                   ObsEvent{.cycle = sim_.now(),
                         .kind = EventKind::TxCommit,
                         .ctx = thr.ctx, .thread = t,
                         .a = ctx.shadowRead.size(),
                         .b = ctx.shadowWrite.size()});
    if (observer_)
        observer_->onTxCommit(t, thr.asid);
    if (pm_)
        pm_->onTxCommit(t, sim_.now());

    ctx.readSig->clear();
    ctx.writeSig->clear();
    ctx.shadowRead.clear();
    ctx.shadowWrite.clear();
    thr.log.reset();
    thr.filter.clear();
    thr.timestamp = ~0ull;
    thr.possibleCycle = false;
    thr.backoffLevel = 0;
    thr.lastNackedValid = false;

    Cycle latency = cfg_.commitLatency;
    const bool migrated = thr.rescheduledDuringTx;
    thr.rescheduledDuringTx = false;
    if (migrated)
        latency += cfg_.summaryTrapLatency;

    auto hook = commitMigrationHook_;
    const ThreadId tid = t;
    sim_.queue().scheduleIn(latency, [this, done = std::move(done),
                                      hook, migrated, tid]() {
        if (migrated && hook)
            hook(tid);
        resumePhase(tid);
        done();
    }, EventPriority::Cpu);
}

void
TmEngine::txAbortFrame(ThreadId t, DoneFn done)
{
    TxThread &thr = *threads_[t];
    logtm_assert(thr.inTx(), "abort without transaction");
    logtm_assert(thr.ctx != invalidCtx, "abort on descheduled thread");
    HwContext &ctx = *contexts_[thr.ctx];
    acct_.txAbortTop(thr.ctx, sim_.now(), t);
    ++aborts_;
    ++causeCounter(thr.abortCause);
    thr.lastAbortCause = thr.abortCause;
    const uint64_t depth_before = thr.log.depth();
    logtm_trace(TraceCat::Tm, sim_.now(),
                "t%u abort frame depth=%zu cause=%d", t,
                thr.log.depth(), static_cast<int>(thr.abortCause));

    // Software abort handler: walk the frame LIFO and restore old
    // values through the current translation (paging-safe). The
    // records must be walked before popFrame() truncates the arena.
    const auto records = thr.log.topRecords();
    logtm_obs_emit(sim_.events(),
                   ObsEvent{.cycle = sim_.now(),
                         .kind = EventKind::TxAbort,
                         .ctx = thr.ctx, .thread = t,
                         .cause =
                             static_cast<uint8_t>(thr.abortCause),
                         .a = depth_before,
                         .b = records.size()});
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
        mem_.data().store(translate(thr, it->vaddr), it->oldValue);
        if (pm_) {
            pm_->onAbortRestore(t, thr.asid, it->vaddr, it->oldValue,
                                sim_.now());
        }
    }
    const Cycle latency = cfg_.abortTrapLatency +
        records.size() * cfg_.abortRestoreLatency;
    LogFrame frame = thr.log.popFrame();

    // Release isolation: restore the parent's signatures (nested) or
    // clear them (outermost frame).
    if (frame.savedRead) {
        ctx.readSig->clear();
        ctx.readSig->unionWith(*frame.savedRead);
        ctx.writeSig->clear();
        ctx.writeSig->unionWith(*frame.savedWrite);
        ctx.shadowRead = frame.savedShadowRead;
        ctx.shadowWrite = frame.savedShadowWrite;
    } else {
        logtm_assert(thr.log.depth() == 0,
                     "nested frame without signature save area");
        ctx.readSig->clear();
        ctx.writeSig->clear();
        ctx.shadowRead.clear();
        ctx.shadowWrite.clear();
    }
    thr.filter.clear();
    if (observer_)
        observer_->onAbortFrame(t, thr.asid, depth_before);
    if (pm_)
        pm_->onAbortFrame(t, sim_.now());

    // Partial abort (paper §3.2): if the conflicting address still
    // hits the restored signatures, keep unwinding at the parent.
    // Some causes doom the whole attempt (capacity overflow,
    // fallback-lock quiesce, remote abort, commit invalidation):
    // partial unwinds cannot shrink the footprint retroactively,
    // release the attempt from the lock's shadow, or revalidate a
    // read set another engine's publish already invalidated.
    bool still_doomed = false;
    if (thr.log.depth() > 0 && forcesFullUnwind(thr.abortCause)) {
        still_doomed = true;
    } else if (thr.log.depth() > 0 && thr.doomedAddrValid) {
        const PhysAddr block = blockAlign(thr.doomedAddr);
        still_doomed = thr.doomedType == AccessType::Read
            ? ctx.writeFast.mayContain(block)
            : (ctx.readFast.mayContain(block) ||
               ctx.writeFast.mayContain(block));
    }
    if (!still_doomed) {
        thr.doomed = false;
        thr.abortCause = AbortCause::None;
        thr.doomedAddrValid = false;
        thr.possibleCycle = false;
        thr.lastNackedValid = false;
        // NOTE: the timestamp is deliberately retained across the
        // retry (LogTM): the transaction ages, so the oldest
        // transaction in any conflict cycle eventually wins and
        // starvation is avoided. It resets only at commit.
    }

    sim_.queue().scheduleIn(latency,
                            [this, t, done = std::move(done)]() {
        resumePhase(t);
        done();
    }, EventPriority::Cpu);
}

void
TmEngine::abortBackoff(ThreadId t, DoneFn done)
{
    TxThread &thr = *threads_[t];
    if (thr.ctx != invalidCtx)
        acct_.beginWindow(thr.ctx, sim_.now(), CyclePhase::Backoff);
    sim_.queue().scheduleIn(backoffDelay(thr),
                            [this, t, done = std::move(done)]() {
        resumePhase(t);
        done();
    }, EventPriority::Cpu);
}

void
TmEngine::txRequestAbort(ThreadId t)
{
    TxThread &thr = *threads_[t];
    logtm_assert(thr.inTx(), "explicit abort without transaction");
    doom(thr, AbortCause::Explicit, 0, AccessType::Read, false);
}

void
TmEngine::injectCapacityAbort(ThreadId t)
{
    TxThread &thr = *threads_[t];
    if (!thr.inTx() || thr.doomed)
        return;  // nothing speculative to overflow
    doom(thr, AbortCause::Capacity, 0, AccessType::Read, false);
}

void
TmEngine::quiesceAbort(ThreadId t)
{
    TxThread &thr = *threads_[t];
    if (!thr.inTx() || thr.doomed)
        return;
    doom(thr, AbortCause::FallbackLockConflict, 0, AccessType::Read,
         false);
}

Counter &
TmEngine::causeCounter(AbortCause cause)
{
    const auto i = static_cast<size_t>(cause);
    if (!abortsByCause_[i]) {
        abortsByCause_[i] = &sim_.stats().counter(
            std::string("tm.abortsByCause.") +
            abortCauseName(static_cast<uint8_t>(i)));
    }
    return *abortsByCause_[i];
}

Cycle
TmEngine::backoffDelay(TxThread &thr)
{
    // Randomized exponential backoff: uniform within a window that
    // doubles per consecutive abort (reset at commit).
    const uint32_t level =
        std::min(thr.backoffLevel++, cfg_.backoffMaxShift);
    const Cycle window = cfg_.nackRetryBase << level;
    return cfg_.nackRetryBase + sim_.rng().below(window);
}

// --------------------------------------------------------------------
// Conflict handling
// --------------------------------------------------------------------

void
TmEngine::resumePhase(ThreadId t)
{
    TxThread &thr = *threads_[t];
    if (thr.ctx != invalidCtx)
        acct_.resume(thr.ctx, sim_.now(), thr.inTx());
}

void
TmEngine::noteStall(const TxThread &thr, PhysAddr block,
                         AccessType type, CtxId nacker)
{
    ++stalls_;
    acct_.beginWindow(thr.ctx, sim_.now(), CyclePhase::Stall);
    logtm_obs_emit(sim_.events(),
                   ObsEvent{.cycle = sim_.now(),
                         .kind = EventKind::TxStall,
                         .ctx = thr.ctx, .thread = thr.id,
                         .addr = block, .otherCtx = nacker,
                         .access = type});
}

void
TmEngine::noteSummaryTrap(const TxThread &thr, PhysAddr block)
{
    ++summaryTraps_;
    logtm_obs_emit(sim_.events(),
                   ObsEvent{.cycle = sim_.now(),
                         .kind = EventKind::SummaryTrap,
                         .ctx = thr.ctx, .thread = thr.id,
                         .addr = block});
}

void
TmEngine::doom(TxThread &thr, AbortCause cause, PhysAddr addr,
                    AccessType type, bool addr_valid)
{
    if (thr.doomed)
        return;
    logtm_trace(TraceCat::Tm, sim_.now(), "t%u doomed (cause=%d)",
                thr.id, static_cast<int>(cause));
    thr.doomed = true;
    thr.abortCause = cause;
    thr.doomedAddr = addr;
    thr.doomedType = type;
    thr.doomedAddrValid = addr_valid;
}

bool
TmEngine::onConflictNack(TxThread &thr, uint64_t nacker_ts,
                              CtxId nacker_ctx, PhysAddr block,
                              AccessType type, uint32_t retries)
{
    (void)nacker_ctx;
    (void)block;
    (void)type;
    if (!thr.inTx())
        return false;  // plain accesses just retry

    if (cfg_.conflictPolicy == ConflictPolicy::AbortAlways) {
        doom(thr, AbortCause::PolicyAbort, 0, AccessType::Read, false);
        return true;
    }
    if (cfg_.conflictPolicy == ConflictPolicy::StallThenAbort &&
        retries >= cfg_.stallAbortThreshold) {
        // Contention-manager trap: this access has been NACKed too
        // long; release isolation and retry the whole transaction.
        doom(thr, AbortCause::PolicyAbort, 0, AccessType::Read, false);
        return true;
    }

    // LogTM deadlock avoidance: abort when this transaction both
    // NACKed an older transaction (possible_cycle) and is now NACKed
    // by an older transaction.
    if (thr.possibleCycle && nacker_ts < thr.timestamp) {
        doom(thr, AbortCause::DeadlockCycle, thr.lastNackedAddr,
             thr.lastNackedType, thr.lastNackedValid);
        return true;
    }
    return false;
}

void
TmEngine::classifyConflict(const HwContext &ctx, PhysAddr block,
                                AccessType remote_type, CtxId req_ctx)
{
    const bool actual = remote_type == AccessType::Read
        ? ctx.shadowWrite.contains(block)
        : (ctx.shadowRead.contains(block) ||
           ctx.shadowWrite.contains(block));
    if (actual)
        ++conflictsTrue_;
    else
        ++conflictsFalse_;
    logtm_trace(TraceCat::Sig, sim_.now(),
                "ctx%u sig conflict on 0x%llx (%s, owner ctx%u)",
                req_ctx,
                static_cast<unsigned long long>(block),
                actual ? "true" : "false-positive", ctx.id);
    logtm_obs_emit(sim_.events(),
                   ObsEvent{.cycle = sim_.now(),
                         .kind = EventKind::Conflict,
                         .ctx = req_ctx,
                         .thread = ctx.thread,
                         .addr = block,
                         .otherCtx = ctx.id,
                         .access = remote_type,
                         .falsePositive = !actual});
}

ConflictVerdict
TmEngine::checkRemote(CoreId core, PhysAddr block,
                           AccessType remote_type, Asid req_asid,
                           CtxId req_ctx, uint64_t req_ts)
{
    ConflictVerdict verdict;
    const CtxId first = core * cfg_.threadsPerCore;
    for (CtxId c = first; c < first + cfg_.threadsPerCore; ++c) {
        HwContext &ctx = *contexts_[c];
        const bool hit_r = ctx.readFast.mayContain(block);
        const bool hit_w = ctx.writeFast.mayContain(block);
        verdict.keepSticky |= hit_r || hit_w;
        verdict.inWriteSet |= hit_w;

        bool relevant = remote_type == AccessType::Read
            ? hit_w : (hit_r || hit_w);
        if (relevant && sigBypass_ && sigBypass_(c, block))
            relevant = false;  // test-only injected false negative
        if (c == req_ctx || ctx.thread == invalidThread)
            continue;
        TxThread &thr = *threads_[ctx.thread];
        if (!thr.inTx() || thr.asid != req_asid)
            continue;  // ASID filter (paper §2): no cross-process NACKs

        // Soundness: signatures may alias but must never miss a real
        // conflict. The exact shadow sets are ground truth; report a
        // breach to the oracle instead of silently proceeding.
        if (observer_ && !relevant) {
            const bool actual = remote_type == AccessType::Read
                ? ctx.shadowWrite.contains(block)
                : (ctx.shadowRead.contains(block) ||
                   ctx.shadowWrite.contains(block));
            if (actual) {
                observer_->onSigFalseNegative(c, req_ctx, block,
                                              remote_type);
            }
        }
        if (!relevant)
            continue;

        onRelevantConflict(verdict, ctx, thr, block, remote_type,
                           req_ctx, req_ts, hit_r, hit_w);
    }
    return verdict;
}

void
TmEngine::onRelevantConflict(ConflictVerdict &verdict, HwContext &ctx,
                             TxThread &holder, PhysAddr block,
                             AccessType remote_type, CtxId req_ctx,
                             uint64_t req_ts, bool hit_r, bool hit_w)
{
    (void)hit_r;
    (void)hit_w;
    verdict.conflict = true;
    classifyConflict(ctx, block, remote_type, req_ctx);
    if (holder.timestamp < verdict.nackerTs) {
        verdict.nackerTs = holder.timestamp;
        verdict.nackerCtx = ctx.id;
    }
    // Deadlock-avoidance bookkeeping: we are NACKing req_ts; if
    // the requester is older, a cycle is possible.
    if (req_ts < holder.timestamp)
        holder.possibleCycle = true;
    holder.lastNackedAddr = block;
    holder.lastNackedType = remote_type;
    holder.lastNackedValid = true;
}

bool
TmEngine::inAnyLocalSig(CoreId core, PhysAddr block) const
{
    const CtxId first = core * cfg_.threadsPerCore;
    for (CtxId c = first; c < first + cfg_.threadsPerCore; ++c) {
        const HwContext &ctx = *contexts_[c];
        if (ctx.readFast.mayContain(block) ||
            ctx.writeFast.mayContain(block)) {
            return true;
        }
    }
    return false;
}

// --------------------------------------------------------------------
// Memory operations
// --------------------------------------------------------------------

void
TmEngine::load(ThreadId t, VirtAddr va, LoadDoneFn done)
{
    auto op = std::make_shared<OpRequest>();
    op->t = t;
    op->va = va;
    op->type = AccessType::Read;
    op->loadDone = std::move(done);
    ++opsInFlight_;
    issueOp(std::move(op));
}

void
TmEngine::store(ThreadId t, VirtAddr va, uint64_t value,
                     StoreDoneFn done)
{
    auto op = std::make_shared<OpRequest>();
    op->t = t;
    op->va = va;
    op->type = AccessType::Write;
    op->storeValue = value;
    op->storeDone = std::move(done);
    ++opsInFlight_;
    issueOp(std::move(op));
}

void
TmEngine::loadExclusive(ThreadId t, VirtAddr va, LoadDoneFn done)
{
    auto op = std::make_shared<OpRequest>();
    op->t = t;
    op->va = va;
    op->type = AccessType::Write;
    op->loadForWrite = true;
    op->loadDone = std::move(done);
    ++opsInFlight_;
    issueOp(std::move(op));
}

void
TmEngine::escapeLoad(ThreadId t, VirtAddr va, LoadDoneFn done)
{
    auto op = std::make_shared<OpRequest>();
    op->t = t;
    op->va = va;
    op->type = AccessType::Read;
    op->escape = true;
    op->loadDone = std::move(done);
    ++opsInFlight_;
    issueOp(std::move(op));
}

void
TmEngine::escapeStore(ThreadId t, VirtAddr va, uint64_t value,
                           StoreDoneFn done)
{
    auto op = std::make_shared<OpRequest>();
    op->t = t;
    op->va = va;
    op->type = AccessType::Write;
    op->escape = true;
    op->storeValue = value;
    op->storeDone = std::move(done);
    ++opsInFlight_;
    issueOp(std::move(op));
}

void
TmEngine::atomicRmw(ThreadId t, VirtAddr va,
                         std::function<uint64_t(uint64_t)> rmw_op,
                         LoadDoneFn done)
{
    auto op = std::make_shared<OpRequest>();
    op->t = t;
    op->va = va;
    op->type = AccessType::Write;
    op->escape = true;  // atomics bypass TM version management
    op->rmwOp = std::move(rmw_op);
    op->loadDone = std::move(done);
    ++opsInFlight_;
    issueOp(std::move(op));
}

void
TmEngine::finishOp(const std::shared_ptr<OpRequest> &op,
                        OpStatus status, uint64_t value)
{
    logtm_assert(opsInFlight_ > 0, "finishOp without issued op");
    --opsInFlight_;
    if (op->loadDone)
        op->loadDone(status, value);
    else
        op->storeDone(status);
}

void
TmEngine::retryOp(std::shared_ptr<OpRequest> op,
                       bool conflict_backoff)
{
    ++op->retries;
    // LogTM conflict resolution STALLS the requester and retries the
    // coherence operation eagerly (paper §2); the stalled -- and
    // therefore older-growing -- transaction must win the conflict as
    // soon as the blocker commits or aborts. Exponential backoff is
    // applied only after aborts (abortBackoff), never to stalls.
    (void)conflict_backoff;
    const Cycle delay =
        cfg_.nackRetryBase + sim_.rng().below(cfg_.nackRetryBase);
    sim_.queue().scheduleIn(delay, [this, op = std::move(op)]() mutable {
        issueOp(std::move(op));
    }, EventPriority::Cpu);
}

ConflictVerdict
TmEngine::checkSiblings(const TxThread &thr, PhysAddr block,
                             AccessType type)
{
    // SMT siblings share the L1, so loads/stores that hit locally
    // would bypass coherence; check their signatures directly
    // (paper §2 "multi-threaded cores"). checkRemote excludes our
    // own context via req_ctx.
    HwContext &ctx = *contexts_[thr.ctx];
    return checkRemote(ctx.core, block, type, thr.asid, thr.ctx,
                       thr.timestamp);
}

void
TmEngine::issueOp(std::shared_ptr<OpRequest> op)
{
    TxThread &thr = *threads_[op->t];
    logtm_assert(thr.ctx != invalidCtx,
                 "memory op from descheduled thread");
    HwContext &ctx = *contexts_[thr.ctx];
    const bool in_tx = thr.inTx() && !op->escape;

    // A reissued op ends any stall window the NACK opened; other
    // retry delays (summary traps, plain-access NACKs) deliberately
    // stay in their current phase.
    if (acct_.phase(thr.ctx) == CyclePhase::Stall)
        acct_.resume(thr.ctx, sim_.now(), thr.inTx());

    if (thr.doomed && in_tx) {
        finishOp(op, OpStatus::Aborted, 0);
        return;
    }

    const PhysAddr pa = translator_->translate(thr.asid, op->va);
    const PhysAddr block = blockAlign(pa);

    // 1. Summary signature: checked on EVERY memory reference,
    //    including cache hits (paper §4.1).
    if (!op->escape && ctx.summaryFast &&
        ctx.summaryFast.mayContain(block)) {
        noteSummaryTrap(thr, block);
        if (thr.inTx()) {
            // Stalling cannot resolve a conflict with a descheduled
            // transaction; abort and retry later.
            doom(thr, AbortCause::SummaryConflict, 0, AccessType::Read,
                 false);
            finishOp(op, OpStatus::Aborted, 0);
            return;
        }
        // Plain access: wait for the OS to reschedule/commit.
        sim_.queue().scheduleIn(
            cfg_.summaryTrapLatency +
                sim_.rng().below(cfg_.nackRetryBase),
            [this, op = std::move(op)]() mutable {
                issueOp(std::move(op));
            }, EventPriority::Cpu);
        return;
    }

    // 2. SMT-sibling signatures (local conflicts never reach the
    //    coherence protocol).
    if (!op->escape) {
        ConflictVerdict verdict = checkSiblings(thr, block, op->type);
        if (verdict.conflict) {
            if (thr.inTx())
                noteStall(thr, block, op->type, verdict.nackerCtx);
            if (onConflictNack(thr, verdict.nackerTs, verdict.nackerCtx,
                               block, op->type, op->retries)) {
                finishOp(op, OpStatus::Aborted, 0);
                return;
            }
            retryOp(std::move(op), true);
            return;
        }
    }

    // 3. Issue to the memory system.
    L1Cache::Request req;
    req.ctx = thr.ctx;
    req.type = op->type;
    req.transactional = in_tx;
    req.txTs = requestTimestamp(thr, in_tx);
    req.asid = thr.asid;
    req.done = [this, op](const MemAccessResult &res) mutable {
        TxThread &thr = *threads_[op->t];
        const bool in_tx = thr.inTx() && !op->escape;

        if (res.nacked) {
            if (res.conflictNack) {
                if (thr.inTx())
                    noteStall(thr,
                              blockAlign(translate(thr, op->va)),
                              op->type, res.nackerCtx);
                if (onConflictNack(thr, res.nackerTs, res.nackerCtx,
                                   blockAlign(translate(thr, op->va)),
                                   op->type, op->retries)) {
                    finishOp(op, OpStatus::Aborted, 0);
                    return;
                }
            }
            retryOp(std::move(op), res.conflictNack);
            return;
        }

        if (thr.doomed && in_tx) {
            finishOp(op, OpStatus::Aborted, 0);
            return;
        }

        const PhysAddr pa = translate(thr, op->va);
        const PhysAddr block = blockAlign(pa);
        HwContext &ctx = *contexts_[thr.ctx];

        // Conflicts need only be detected before the memory
        // instruction commits (paper §2): re-validate the local
        // checks NOW, closing the window in which a sibling insert or
        // a summary install landed while this request was in flight.
        if (!op->escape) {
            if (ctx.summaryFast && ctx.summaryFast.mayContain(block)) {
                noteSummaryTrap(thr, block);
                if (thr.inTx()) {
                    doom(thr, AbortCause::SummaryConflict, 0,
                         AccessType::Read, false);
                    finishOp(op, OpStatus::Aborted, 0);
                    return;
                }
                retryOp(std::move(op), true);
                return;
            }
            ConflictVerdict verdict =
                checkSiblings(thr, block, op->type);
            if (verdict.conflict) {
                if (thr.inTx())
                    noteStall(thr, block, op->type,
                              verdict.nackerCtx);
                if (onConflictNack(thr, verdict.nackerTs,
                                   verdict.nackerCtx, block,
                                   op->type, op->retries)) {
                    finishOp(op, OpStatus::Aborted, 0);
                    return;
                }
                retryOp(std::move(op), true);
                return;
            }
        }

        // Success: commit the access. Values move now; signatures
        // record the access; version management is the engine
        // policy seam.
        Cycle extra = 0;

        // Hybrid model (src/hybrid/): capacity admission for hardware
        // transactions, lock subscription + instrumentation latency
        // for software-mode ones. Absent by default.
        if (hybrid_ && in_tx) {
            const AbortCause cause = hybrid_->onAccess(
                ctx, thr, block, op->type, op->loadForWrite, &extra);
            if (cause != AbortCause::None) {
                doom(thr, cause, 0, AccessType::Read, false);
                finishOp(op, OpStatus::Aborted, 0);
                return;
            }
        }

        applyAccess(op, thr, ctx, pa, block, in_tx, extra);
    };
    mem_.access(ctx.core, pa, std::move(req));
}

void
TmEngine::applyAccess(const std::shared_ptr<OpRequest> &op,
                      TxThread &thr, HwContext &ctx, PhysAddr pa,
                      PhysAddr block, bool in_tx, Cycle extra)
{
    uint64_t value = 0;

    if (op->type == AccessType::Read) {
        if (in_tx) {
            logtm_trace(TraceCat::Sig, sim_.now(),
                        "ctx%u readSig insert 0x%llx", thr.ctx,
                        static_cast<unsigned long long>(block));
            ctx.readFast.insert(block);
            ctx.shadowRead.insert(block);
        }
        value = mem_.data().load(pa);
        if (observer_ && in_tx)
            observer_->onTxRead(op->t, thr.asid, op->va, value);
    } else {
        if (in_tx) {
            logtm_trace(TraceCat::Sig, sim_.now(),
                        "ctx%u writeSig insert 0x%llx", thr.ctx,
                        static_cast<unsigned long long>(block));
            ctx.writeFast.insert(block);
            ctx.shadowWrite.insert(block);
            if (op->loadForWrite) {
                ctx.readFast.insert(block);
                ctx.shadowRead.insert(block);
            }
            if (thr.filter.contains(op->va)) {
                ++logFilterHits_;
                logtm_obs_emit(sim_.events(),
                               ObsEvent{.cycle = sim_.now(),
                                     .kind =
                                         EventKind::LogFilterHit,
                                     .ctx = thr.ctx,
                                     .thread = thr.id,
                                     .addr = block});
            } else {
                const uint64_t old_value = mem_.data().load(pa);
                const uint64_t lsn = thr.log.append(
                    UndoRecord{op->va, pa, old_value});
                thr.filter.insert(op->va);
                ++logRecords_;
                extra += cfg_.logWriteLatency;
                if (pm_) {
                    pm_->onUndoAppend(op->t, thr.asid, op->va,
                                      old_value, lsn, sim_.now());
                }
                logtm_obs_emit(sim_.events(),
                               ObsEvent{.cycle = sim_.now(),
                                     .kind = EventKind::LogWrite,
                                     .ctx = thr.ctx,
                                     .thread = thr.id,
                                     .addr = block,
                                     .a = thr.log.depth()});
            }
        }
        if (op->loadForWrite) {
            value = mem_.data().load(pa);
            if (observer_ && in_tx) {
                // Ownership + undo log acquired; data unchanged.
                observer_->onTxRead(op->t, thr.asid, op->va, value);
                observer_->onTxWrite(op->t, thr.asid, op->va,
                                     value, value);
            }
        } else if (op->rmwOp) {
            value = mem_.data().load(pa);
            const uint64_t new_value = op->rmwOp(value);
            mem_.data().store(pa, new_value);
            if (observer_) {
                observer_->onDirectWrite(op->t, thr.asid, op->va,
                                         new_value, true);
            }
            if (pm_) {
                pm_->onDirectStore(op->t, thr.asid, op->va,
                                   new_value, sim_.now());
            }
        } else {
            if (observer_) {
                const uint64_t old_value = mem_.data().load(pa);
                mem_.data().store(pa, op->storeValue);
                if (in_tx) {
                    observer_->onTxWrite(op->t, thr.asid, op->va,
                                         old_value, op->storeValue);
                } else {
                    observer_->onDirectWrite(op->t, thr.asid,
                                             op->va, op->storeValue,
                                             op->escape);
                }
            } else {
                mem_.data().store(pa, op->storeValue);
            }
            if (pm_) {
                if (in_tx) {
                    pm_->onTxStore(op->t, thr.asid, op->va,
                                   op->storeValue, sim_.now());
                } else {
                    pm_->onDirectStore(op->t, thr.asid, op->va,
                                       op->storeValue, sim_.now());
                }
            }
        }
    }

    if (extra == 0) {
        finishOp(op, OpStatus::Ok, value);
        return;
    }
    sim_.queue().scheduleIn(extra, [this, op, value]() {
        finishOp(op, OpStatus::Ok, value);
    }, EventPriority::Cpu);
}

} // namespace logtm
