#include "os/os_kernel.hh"

#include "common/log.hh"
#include "common/trace.hh"
#include "sig/sig_fast_path.hh"
#include "sig/signature_factory.hh"

namespace logtm {

OsKernel::OsKernel(Simulator &sim, TmEngine &engine,
                   const SystemConfig &cfg)
    : sim_(sim), engine_(engine), cfg_(cfg),
      contextSwitches_(sim.stats().counter("os.contextSwitches")),
      migrations_(sim.stats().counter("os.migrations")),
      pageRelocations_(sim.stats().counter("os.pageRelocations")),
      summaryInstalls_(sim.stats().counter("os.summaryInstalls"))
{
    engine_.setTranslator(this);
    engine_.setCommitMigrationHook(
        [this](ThreadId t) { onCommitAfterMigration(t); });
}

Asid
OsKernel::createProcess()
{
    auto proc = std::make_unique<Process>();
    proc->asid = static_cast<Asid>(processes_.size());
    proc->pageTable = std::make_unique<PageTable>(
        [this]() { return allocFrame(); });
    auto prototype = makeSignature(cfg_.signature);
    proc->summaryCounts = std::make_unique<CountingSignature>(*prototype);
    processes_.push_back(std::move(proc));
    return processes_.back()->asid;
}

ThreadId
OsKernel::createThread(Asid asid)
{
    const ThreadId t = engine_.createThread(asid);
    logtm_assert(t == threadProcess_.size(), "thread id bookkeeping");
    threadProcess_.push_back(asid);
    processes_[asid]->threads.insert(t);
    return t;
}

ThreadId
OsKernel::spawnThread(Asid asid)
{
    const ThreadId t = createThread(asid);
    scheduleThread(t);
    return t;
}

CtxId
OsKernel::contextOf(ThreadId t) const
{
    return engine_.thread(t).ctx;
}

uint32_t
OsKernel::freeContexts() const
{
    uint32_t n = 0;
    for (CtxId c = 0; c < engine_.numContexts(); ++c) {
        if (engine_.context(c).thread == invalidThread)
            ++n;
    }
    return n;
}

void
OsKernel::scheduleThread(ThreadId t, CtxId ctx)
{
    logtm_trace(TraceCat::Os, sim_.now(), "schedule t%u on ctx%u", t,
                ctx);
    engine_.bindThread(t, ctx);
    ++contextSwitches_;
    logtm_obs_emit(sim_.events(),
                   ObsEvent{.cycle = sim_.now(),
                         .kind = EventKind::SchedIn,
                         .ctx = ctx, .thread = t});
    refreshSummaries(*processes_[threadProcess_[t]]);

    auto pit = parked_.find(t);
    if (pit != parked_.end()) {
        auto resume = std::move(pit->second);
        parked_.erase(pit);
        sim_.queue().scheduleIn(cfg_.contextSwitchLatency,
                                std::move(resume), EventPriority::Cpu);
    }
}

bool
OsKernel::parkIfDescheduled(ThreadId t, std::function<void()> resume)
{
    if (engine_.thread(t).ctx != invalidCtx)
        return false;
    logtm_assert(parked_.find(t) == parked_.end(),
                 "thread already parked");
    parked_.emplace(t, std::move(resume));
    return true;
}

void
OsKernel::requestPreempt(ThreadId t)
{
    if (engine_.thread(t).ctx == invalidCtx)
        return;  // already descheduled
    logtm_trace(TraceCat::Os, sim_.now(), "preempt requested for t%u",
                t);
    preemptPending_.insert(t);
}

bool
OsKernel::preemptionPoint(ThreadId t, std::function<void()> resume)
{
    // Size probe before the erase: this runs at every operation
    // boundary, and preemptions only exist in fault-injection runs.
    if (!preemptPending_.empty() && preemptPending_.erase(t) &&
        engine_.thread(t).ctx != invalidCtx) {
        descheduleThread(t);
    }
    return parkIfDescheduled(t, std::move(resume));
}

CtxId
OsKernel::scheduleThread(ThreadId t)
{
    for (CtxId c = 0; c < engine_.numContexts(); ++c) {
        if (engine_.context(c).thread == invalidThread) {
            scheduleThread(t, c);
            return c;
        }
    }
    logtm_fatal("no free hardware context");
}

void
OsKernel::descheduleThread(ThreadId t)
{
    Process &proc = *processes_[threadProcess_[t]];
    const bool mid_tx = engine_.inTx(t);
    logtm_trace(TraceCat::Os, sim_.now(), "deschedule t%u (inTx=%d)",
                t, static_cast<int>(mid_tx));
    const CtxId old_ctx = engine_.thread(t).ctx;
    engine_.unbindThread(t);
    ++contextSwitches_;
    logtm_obs_emit(sim_.events(),
                   ObsEvent{.cycle = sim_.now(),
                         .kind = EventKind::SchedOut,
                         .ctx = old_ctx, .thread = t,
                         .a = mid_tx ? 1u : 0u});

    if (mid_tx) {
        // Merge the thread's saved signatures into the process
        // summary (counting signature, paper footnote 1).
        const Signature *r = engine_.savedReadSig(t);
        const Signature *w = engine_.savedWriteSig(t);
        logtm_assert(r && w, "mid-tx deschedule without saved sigs");
        Process::Contribution contrib;
        contrib.read = r->clone();
        contrib.write = w->clone();
        proc.summaryCounts->addSignature(*contrib.read);
        proc.summaryCounts->addSignature(*contrib.write);
        proc.contributions[t] = std::move(contrib);
    }
    refreshSummaries(proc);
}

void
OsKernel::migrateThread(ThreadId t, CtxId new_ctx)
{
    descheduleThread(t);
    scheduleThread(t, new_ctx);
    ++migrations_;
}

void
OsKernel::refreshSummaries(Process &proc)
{
    for (ThreadId t : proc.threads) {
        const CtxId ctx = engine_.thread(t).ctx;
        if (ctx == invalidCtx)
            continue;
        // A thread rescheduled mid-transaction keeps its own saved
        // sets OUT of its summary (it would conflict with itself);
        // the stale contribution stays in until it commits.
        std::unique_ptr<Signature> summary;
        if (proc.contributions.find(t) == proc.contributions.end()) {
            if (!proc.summaryCounts->empty())
                summary = proc.summaryCounts->summary();
        } else {
            summary = summaryExcluding(proc, t);
        }
        engine_.setSummary(ctx, std::move(summary));
        ++summaryInstalls_;
        logtm_obs_emit(sim_.events(),
                       ObsEvent{.cycle = sim_.now(),
                             .kind = EventKind::SummaryInstall,
                             .ctx = ctx, .thread = t,
                             .a = proc.asid});
    }
}

std::unique_ptr<Signature>
OsKernel::summaryExcluding(Process &proc, ThreadId t)
{
    auto prototype = makeSignature(cfg_.signature);
    CountingSignature counts(*prototype);
    for (auto &kv : proc.contributions) {
        if (kv.first == t)
            continue;
        counts.addSignature(*kv.second.read);
        counts.addSignature(*kv.second.write);
    }
    if (counts.empty())
        return nullptr;
    return counts.summary();
}

void
OsKernel::onCommitAfterMigration(ThreadId t)
{
    Process &proc = *processes_[threadProcess_[t]];
    auto cit = proc.contributions.find(t);
    if (cit == proc.contributions.end())
        return;
    proc.summaryCounts->removeSignature(*cit->second.read);
    proc.summaryCounts->removeSignature(*cit->second.write);
    proc.contributions.erase(cit);
    refreshSummaries(proc);
}

PhysAddr
OsKernel::translate(Asid asid, VirtAddr va)
{
    return processes_[asid]->pageTable->translate(va);
}

namespace {

/** Re-insert every old-page block of @p sig at the new page. */
void
rewriteSignaturePage(Signature &sig, uint64_t old_ppage,
                     uint64_t new_ppage)
{
    const PhysAddr old_base = old_ppage << pageBytesLog2;
    const PhysAddr new_base = new_ppage << pageBytesLog2;
    SigFastRef fast;
    fast.bind(&sig);
    for (uint64_t off = 0; off < pageBytes; off += blockBytes) {
        if (fast.mayContain(old_base + off))
            fast.insert(new_base + off);
    }
}

} // namespace

uint64_t
OsKernel::relocatePage(Asid asid, VirtAddr va)
{
    Process &proc = *processes_[asid];
    const uint64_t vpage = pageNumber(va);
    const uint64_t old_ppage = proc.pageTable->lookup(vpage);
    logtm_assert(old_ppage != ~0ull, "relocating an unmapped page");
    const uint64_t new_ppage = allocFrame();
    ++pageRelocations_;
    logtm_trace(TraceCat::Os, sim_.now(),
                "relocate asid %u vpage 0x%llx: frame %llu -> %llu",
                asid, static_cast<unsigned long long>(vpage),
                static_cast<unsigned long long>(old_ppage),
                static_cast<unsigned long long>(new_ppage));

    // 1. Move the data and the mapping.
    engine_.memory().data().copyPage(old_ppage, new_ppage);
    proc.pageTable->remap(vpage, new_ppage);

    // 2. Rewrite active and saved signatures (paper §4.2): each keeps
    //    both the old and new physical addresses.
    engine_.rewritePageInSignatures(asid, old_ppage, new_ppage);

    // 3. Update the process's saved contributions and rebuild the
    //    counting signature, then reinstall summaries (the paper's
    //    queued signal for descheduled transactions).
    if (!proc.contributions.empty()) {
        auto prototype = makeSignature(cfg_.signature);
        auto counts = std::make_unique<CountingSignature>(*prototype);
        for (auto &kv : proc.contributions) {
            rewriteSignaturePage(*kv.second.read, old_ppage, new_ppage);
            rewriteSignaturePage(*kv.second.write, old_ppage, new_ppage);
            counts->addSignature(*kv.second.read);
            counts->addSignature(*kv.second.write);
        }
        proc.summaryCounts = std::move(counts);
        refreshSummaries(proc);
    }
    return new_ppage;
}

} // namespace logtm
