#include "obs/cycle_accounting.hh"

#include <string>

#include "common/log.hh"

namespace logtm {

const char *
cycleBucketName(size_t bucket)
{
    static const char *const names[numCycleBuckets + 1] = {
        "committedWork", "abortedWork", "abortRollback", "stall",
        "backoff",       "commitOverhead", "barrier",    "nonTx",
        "idle",          "fallback",       "unresolved",
    };
    logtm_assert(bucket <= numCycleBuckets, "bucket index out of range");
    return names[bucket];
}

size_t
CycleAccounting::bucketOf(CyclePhase p)
{
    switch (p) {
      case CyclePhase::Idle: return bucketIdle;
      case CyclePhase::NonTx: return bucketNonTx;
      case CyclePhase::Stall: return bucketStall;
      case CyclePhase::Backoff: return bucketBackoff;
      case CyclePhase::Rollback: return bucketAbortRollback;
      case CyclePhase::Commit: return bucketCommitOverhead;
      case CyclePhase::Barrier: return bucketBarrier;
      case CyclePhase::Fallback: return bucketFallback;
      case CyclePhase::TxWork: break;  // accrues to a pending frame
    }
    logtm_panic("TxWork has no direct bucket");
}

void
CycleAccounting::init(uint32_t num_contexts, Cycle now)
{
    ctxs_.assign(num_contexts, CtxState{});
    for (CtxState &cs : ctxs_)
        cs.phaseStart = now;
    // Pre-size the per-thread frame stacks: workloads assert
    // numThreads <= numContexts and ThreadIds are dense from 0, so
    // framesFor() never grows the outer vector mid-run.
    threadFrames_.assign(num_contexts, {});
    epoch_ = now;
    elapsed_ = 0;
    finalized_ = false;
}

std::vector<CycleAccounting::Frame> &
CycleAccounting::framesFor(ThreadId t)
{
    if (t >= threadFrames_.size())
        threadFrames_.resize(t + 1);
    return threadFrames_[t];
}

void
CycleAccounting::appendSlice(Frame &frame, const Slice &s)
{
    if (!frame.empty() && frame.back().ctx == s.ctx)
        frame.back().cycles += s.cycles;
    else
        frame.push_back(s);
}

void
CycleAccounting::flushPhase(CtxId ctx, Cycle now)
{
    CtxState &cs = ctxs_[ctx];
    logtm_assert(now >= cs.phaseStart, "cycle accounting ran backwards");
    const uint64_t delta = now - cs.phaseStart;
    cs.phaseStart = now;
    if (delta == 0)
        return;
    if (cs.phase == CyclePhase::TxWork) {
        logtm_assert(cs.thread != invalidThread,
                     "transactional work on an unbound context");
        auto &stack = framesFor(cs.thread);
        logtm_assert(!stack.empty(),
                     "transactional work outside any pending frame");
        appendSlice(stack.back(), Slice{ctx, delta});
    } else {
        cs.buckets[bucketOf(cs.phase)] += delta;
    }
}

void
CycleAccounting::onSchedIn(CtxId ctx, ThreadId t, Cycle now, bool in_tx)
{
    CtxState &cs = ctxs_[ctx];
    logtm_assert(cs.thread == invalidThread,
                 "sched-in on an occupied context");
    flushPhase(ctx, now);
    cs.thread = t;
    cs.phase = in_tx ? CyclePhase::TxWork : CyclePhase::NonTx;
}

void
CycleAccounting::onSchedOut(CtxId ctx, Cycle now)
{
    CtxState &cs = ctxs_[ctx];
    flushPhase(ctx, now);
    cs.thread = invalidThread;
    cs.phase = CyclePhase::Idle;
}

void
CycleAccounting::txBegin(CtxId ctx, Cycle now, ThreadId t)
{
    CtxState &cs = ctxs_[ctx];
    logtm_assert(cs.thread == t, "txBegin from a thread not bound here");
    flushPhase(ctx, now);
    cs.phase = CyclePhase::TxWork;
    framesFor(t).emplace_back();
}

void
CycleAccounting::txCommitTop(CtxId ctx, Cycle now, ThreadId t,
                             bool closed_nested)
{
    flushPhase(ctx, now);
    auto &stack = framesFor(t);
    logtm_assert(!stack.empty(), "commit without a pending frame");
    Frame top = std::move(stack.back());
    stack.pop_back();
    if (closed_nested) {
        // Fate still rides on the parent; merge upward.
        logtm_assert(!stack.empty(),
                     "closed-nested commit without a parent frame");
        for (const Slice &s : top)
            appendSlice(stack.back(), s);
    } else {
        for (const Slice &s : top)
            ctxs_[s.ctx].buckets[bucketCommittedWork] += s.cycles;
    }
    ctxs_[ctx].phase = CyclePhase::Commit;
}

void
CycleAccounting::txAbortTop(CtxId ctx, Cycle now, ThreadId t)
{
    flushPhase(ctx, now);
    auto &stack = framesFor(t);
    logtm_assert(!stack.empty(), "abort without a pending frame");
    Frame top = std::move(stack.back());
    stack.pop_back();
    for (const Slice &s : top)
        ctxs_[s.ctx].buckets[bucketAbortedWork] += s.cycles;
    ctxs_[ctx].phase = CyclePhase::Rollback;
}

void
CycleAccounting::beginWindow(CtxId ctx, Cycle now, CyclePhase window)
{
    CtxState &cs = ctxs_[ctx];
    if (cs.phase == window)
        return;  // e.g. repeated NACKs extend one stall window
    flushPhase(ctx, now);
    cs.phase = window;
}

void
CycleAccounting::resume(CtxId ctx, Cycle now, bool in_tx)
{
    const CyclePhase p = in_tx ? CyclePhase::TxWork : CyclePhase::NonTx;
    CtxState &cs = ctxs_[ctx];
    if (cs.phase == p)
        return;
    flushPhase(ctx, now);
    cs.phase = p;
}

void
CycleAccounting::finalize(Cycle now)
{
    logtm_assert(!finalized_, "cycle accounting finalized twice");
    for (CtxId c = 0; c < ctxs_.size(); ++c)
        flushPhase(c, now);
    // Transactions still in flight when the run ends never commit:
    // their work is charged as aborted, slice by slice, so the
    // per-context identity survives.
    for (auto &stack : threadFrames_) {
        for (const Frame &frame : stack) {
            for (const Slice &s : frame)
                ctxs_[s.ctx].buckets[bucketAbortedWork] += s.cycles;
        }
    }
    threadFrames_.clear();
    elapsed_ = now - epoch_;
    for (const CtxState &cs : ctxs_) {
        uint64_t sum = 0;
        for (const uint64_t b : cs.buckets)
            sum += b;
        logtm_assert(sum == elapsed_,
                     "cycle-accounting identity violated");
    }
    finalized_ = true;
}

uint64_t
CycleAccounting::totalBucket(size_t bucket) const
{
    uint64_t total = 0;
    for (const CtxState &cs : ctxs_)
        total += cs.buckets[bucket];
    return total;
}

void
CycleAccounting::foldInto(StatsRegistry &stats) const
{
    logtm_assert(finalized_, "foldInto before finalize");
    for (CtxId c = 0; c < ctxs_.size(); ++c) {
        uint64_t sum = 0;
        for (size_t b = 0; b < numCycleBuckets; ++b) {
            sum += ctxs_[c].buckets[b];
            if (ctxs_[c].buckets[b] == 0)
                continue;
            stats.counter(std::string("tm.cycles.") + "c" +
                          std::to_string(c) + "." + cycleBucketName(b))
                .add(ctxs_[c].buckets[b]);
        }
        logtm_assert(sum == elapsed_,
                     "cycle-accounting identity violated");
    }
    for (size_t b = 0; b < numCycleBuckets; ++b) {
        // The fallback bucket exists only with hybrid TM; eliding it
        // when empty keeps hybrid-off stats identical to the seed's.
        if (b == bucketFallback && totalBucket(b) == 0)
            continue;
        stats.counter(std::string("tm.cycles.") + "total." +
                      cycleBucketName(b))
            .add(totalBucket(b));
    }
    stats.counter("tm.cycles.elapsed").add(elapsed_);
}

CycleBucketSnapshot
CycleAccounting::snapshotTotals(Cycle now) const
{
    CycleBucketSnapshot out{};
    for (const CtxState &cs : ctxs_) {
        for (size_t b = 0; b < numCycleBuckets; ++b)
            out[b] += cs.buckets[b];
        const uint64_t delta = now - cs.phaseStart;
        if (delta == 0)
            continue;
        if (cs.phase == CyclePhase::TxWork)
            out[numCycleBuckets] += delta;
        else
            out[bucketOf(cs.phase)] += delta;
    }
    for (const auto &stack : threadFrames_) {
        for (const Frame &frame : stack) {
            for (const Slice &s : frame)
                out[numCycleBuckets] += s.cycles;
        }
    }
    return out;
}

} // namespace logtm
