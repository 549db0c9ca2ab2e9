#include "harness/experiment.hh"

#include <cctype>
#include <chrono>

#include "check/oracle.hh"
#include "common/log.hh"
#include "pm/recovery.hh"
#include "workload/berkeleydb.hh"
#include "workload/cholesky.hh"
#include "workload/microbench.hh"
#include "workload/mp3d.hh"
#include "workload/radiosity.hh"
#include "workload/raytrace.hh"

namespace logtm {

std::string
toString(Benchmark b)
{
    switch (b) {
      case Benchmark::BerkeleyDB: return "BerkeleyDB";
      case Benchmark::Cholesky: return "Cholesky";
      case Benchmark::Radiosity: return "Radiosity";
      case Benchmark::Raytrace: return "Raytrace";
      case Benchmark::Mp3d: return "Mp3d";
      case Benchmark::Microbench: return "Microbench";
    }
    return "?";
}

bool
parseBenchmark(const std::string &s, Benchmark *out)
{
    static const Benchmark all[] = {
        Benchmark::BerkeleyDB, Benchmark::Cholesky,
        Benchmark::Radiosity,  Benchmark::Raytrace,
        Benchmark::Mp3d,       Benchmark::Microbench,
    };
    auto lower = [](const std::string &v) {
        std::string r = v;
        for (char &c : r)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        return r;
    };
    const std::string want = lower(s);
    for (const Benchmark b : all) {
        if (lower(toString(b)) == want) {
            *out = b;
            return true;
        }
    }
    return false;
}

std::vector<Benchmark>
paperBenchmarks()
{
    return {Benchmark::BerkeleyDB, Benchmark::Cholesky,
            Benchmark::Radiosity, Benchmark::Raytrace, Benchmark::Mp3d};
}

std::unique_ptr<Workload>
makeWorkload(Benchmark b, TmSystem &sys, const WorkloadParams &params,
             const MicrobenchConfig &mb)
{
    switch (b) {
      case Benchmark::BerkeleyDB:
        return std::make_unique<BerkeleyDbWorkload>(sys, params);
      case Benchmark::Cholesky:
        return std::make_unique<CholeskyWorkload>(sys, params);
      case Benchmark::Radiosity:
        return std::make_unique<RadiosityWorkload>(sys, params);
      case Benchmark::Raytrace:
        return std::make_unique<RaytraceWorkload>(sys, params);
      case Benchmark::Mp3d:
        return std::make_unique<Mp3dWorkload>(sys, params);
      case Benchmark::Microbench:
        return std::make_unique<MicrobenchWorkload>(sys, params, mb);
    }
    logtm_panic("unknown benchmark");
}

uint64_t
defaultUnits(Benchmark b)
{
    // Paper Table 2 measures 1,120 / 261 / 11,172 / 47,781 / 17,733
    // transactions; we preserve the relative magnitudes at roughly
    // 1/8 scale to keep simulations fast.
    switch (b) {
      case Benchmark::BerkeleyDB: return 512;
      case Benchmark::Cholesky: return 128;
      case Benchmark::Radiosity: return 1408;
      case Benchmark::Raytrace: return 6016;
      case Benchmark::Mp3d: return 2176;
      case Benchmark::Microbench: return 512;
    }
    return 512;
}

namespace {

/**
 * Self-rescheduling interval pump for the TimeSeries sampler. The
 * sampler only reads, so the pump cannot perturb the run: the
 * workload's runUntil() checks completion before each event, so the
 * perpetually pending next sample never extends the simulation.
 */
struct SamplerPump
{
    TimeSeries *ts;
    EventQueue *queue;
    StatsRegistry *stats;
    const CycleAccounting *acct;

    void
    arm() const
    {
        queue->scheduleIn(ts->interval(), [pump = *this]() {
            pump.ts->sample(pump.queue->now(), *pump.stats,
                            pump.acct->snapshotTotals(
                                pump.queue->now()));
            pump.arm();
        }, EventPriority::Cpu);
    }
};

} // namespace

ExperimentResult
runExperiment(const ExperimentConfig &cfg)
{
    TmSystem sys(cfg.sys);

    // Durability runs carry the full oracle so the recovered image
    // can be checked against the committed prefix; hybrid runs carry
    // it for the fallback-lock elision invariant. Never constructed
    // otherwise: the paper-baseline paths are untouched.
    std::unique_ptr<Oracle> oracle;
    if (cfg.sys.pm.enabled || cfg.sys.hybrid.enabled) {
        oracle = std::make_unique<Oracle>(
            sys.sim().queue(), sys.stats(), sys.sim().events(),
            sys.mem().data(), sys.os());
        sys.engine().setObserver(oracle.get());
        if (cfg.sys.pm.enabled)
            oracle->enableHistory();
    }
    if (cfg.skipSubscribeDefect && sys.hybrid())
        sys.hybrid()->setSkipSubscribeDefectForTest(true);

    std::unique_ptr<ObsSession> obs;
    if (cfg.obs.enabled()) {
        ObsConfig ocfg;
        ocfg.outDir = cfg.obs.outDir;
        ocfg.trace = cfg.obs.trace;
        ocfg.numContexts = cfg.sys.numContexts();
        ocfg.threadsPerCore = cfg.sys.threadsPerCore;
        ocfg.intervalCycles = cfg.obs.intervalCycles;
        obs = std::make_unique<ObsSession>(sys.sim().events(),
                                           sys.stats(), ocfg);
        if (TimeSeries *ts = obs->timeSeries()) {
            SamplerPump pump{ts, &sys.sim().queue(), &sys.stats(),
                             &sys.engine().accounting()};
            pump.arm();
        }
    }

    auto wl = makeWorkload(cfg.bench, sys, cfg.wl, cfg.mb);

    bool crashed = false;
    if (cfg.sys.pm.enabled && cfg.crashAtCycle > 0) {
        sys.sim().queue().schedule(cfg.crashAtCycle, [&]() {
            sys.pm()->crash(sys.now());
            oracle->freezeHistory();
            if (obs)
                obs->markCrashed(sys.now());
            crashed = true;
        });
    }

    // hostSeconds brackets the simulation phase ALONE — the clock
    // starts after system construction / obs setup and stops before
    // cycle accounting, recovery and stat snapshotting, on every
    // path out of run(): normal completion, cooperative cancel, and
    // crash-triggered early exit all return through this call, so
    // the measurement never silently includes teardown work
    // (tests/test_host_seconds.cc locks this in).
    const auto t0 = std::chrono::steady_clock::now();
    const WorkloadResult run = wl->run([&cfg, &crashed]() {
        return crashed || (cfg.cancel && cfg.cancel());
    });
    const double hostSecs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    sys.finalizeCycleAccounting();

    // Durability epilogue: settle the lazy flush accounting and, if
    // the run crashed, recover and check the durable image — all
    // before the obs snapshot so stats.json carries the verdict.
    RecoveryReport pmRep;
    uint64_t recoveryMismatches = 0;
    if (PersistModel *pm = sys.pm()) {
        pm->finalize(sys.now());
        if (pm->crashed()) {
            RecoveryManager rec(*pm, &sys.stats());
            pmRep = rec.recover(cfg.tornFlushDefect);
            recoveryMismatches = oracle->checkRecovery(
                pmRep.image, [pm](Cycle c, ThreadId t) {
                    return pm->txCommitDurable(c, t);
                });
        }
    }

    if (TimeSeries *ts = obs ? obs->timeSeries() : nullptr) {
        // Capture the tail interval at the final cycle.
        ts->sample(sys.now(), sys.stats(),
                   sys.engine().accounting().snapshotTotals(sys.now()));
    }
    if (obs)
        obs->finish();
    const StatsRegistry &st = sys.stats();

    ExperimentResult res;
    res.hostSeconds = hostSecs;
    res.bench = run.name;
    res.variant = cfg.wl.useTm ? cfg.sys.signature.name() : "Lock";
    res.engine = toString(cfg.sys.engine);
    res.cycles = run.cycles;
    res.units = run.units;
    res.commits = st.counterValue("tm.commits");
    res.aborts = st.counterValue("tm.aborts");
    res.stalls = st.counterValue("tm.stalls");
    res.conflictsTrue = st.counterValue("tm.conflictsTrue");
    res.conflictsFalse = st.counterValue("tm.conflictsFalse");
    res.summaryTraps = st.counterValue("tm.summaryTraps");
    res.l1TxVictims = st.counterValue("l1.txVictims");
    res.l2TxVictims = st.counterValue("l2.txVictims");
    res.l2SigBroadcasts = st.counterValue("l2.sigBroadcasts");
    res.logRecords = st.counterValue("tm.logRecords");
    res.logFilterHits = st.counterValue("tm.logFilterHits");

    if (PersistModel *pm = sys.pm()) {
        res.pmEnabled = true;
        res.crashed = pm->crashed();
        res.crashCycle = pm->crashCycle();
        res.pmRecords = st.counterValue("tm.pm.records");
        res.pmFlushes = st.counterValue("tm.pm.flushes");
        res.pmDurableRecords = st.counterValue("tm.pm.durableRecords");
        res.recoveryInflightFrames = pmRep.inflightFrames;
        res.recoveryUndoApplied = pmRep.undoApplied;
        res.recoveryMismatches = recoveryMismatches;
    }

    if (auto *micro = dynamic_cast<MicrobenchWorkload *>(wl.get())) {
        res.microCounterSum = micro->counterSum();
        res.microExpected = micro->expectedIncrements();
    }

    static const std::string cause_prefix = "tm.abortsByCause.";
    for (const auto &[name, ctr] : st.counters()) {
        if (name.rfind(cause_prefix, 0) == 0)
            res.abortsByCause[name.substr(cause_prefix.size())] =
                ctr.value();
    }

    if (sys.hybrid()) {
        res.hybridEnabled = true;
        res.hyHwCommits = st.counterValue("tm.hybrid.hwCommits");
        res.hySwCommits = st.counterValue("tm.hybrid.swCommits");
        res.hyLockCommits = st.counterValue("tm.hybrid.lockCommits");
        res.hyEscalations = st.counterValue("tm.hybrid.escalations");
        res.hyLockAcquires = st.counterValue("tm.hybrid.lockAcquires");
        res.hyCapacityAborts =
            st.counterValue("tm.hybrid.capacityAborts");
        res.hySubscriptionAborts =
            st.counterValue("tm.hybrid.subscriptionAborts");
    }

    const CycleAccounting &acct = sys.engine().accounting();
    for (size_t b = 0; b < numCycleBuckets; ++b) {
        // The fallback bucket only exists under hybrid TM; eliding it
        // when empty keeps hybrid-off results identical to the seed.
        if (b == bucketFallback && acct.totalBucket(b) == 0)
            continue;
        res.cycleBuckets[cycleBucketName(b)] = acct.totalBucket(b);
    }

    const auto &rd = st.samplers().find("tm.readSetBlocks");
    if (rd != st.samplers().end()) {
        res.readAvg = rd->second.mean();
        res.readMax = rd->second.max();
    }
    const auto &wr = st.samplers().find("tm.writeSetBlocks");
    if (wr != st.samplers().end()) {
        res.writeAvg = wr->second.mean();
        res.writeMax = wr->second.max();
    }
    const auto &un = st.samplers().find("tm.undoRecordsPerTx");
    if (un != st.samplers().end())
        res.undoRecordsAvg = un->second.mean();
    return res;
}

double
speedupVs(const ExperimentResult &tm, const ExperimentResult &lock)
{
    if (tm.cycles == 0)
        return 0.0;
    return static_cast<double>(lock.cycles) /
        static_cast<double>(tm.cycles);
}

} // namespace logtm
