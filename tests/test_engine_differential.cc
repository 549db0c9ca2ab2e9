/**
 * @file
 * Cross-engine differential harness: the lockdown test for the
 * pluggable TM engine family (docs/ENGINES.md). Every engine the
 * factory can build — eager LogTM-SE, requester-wins, and lazy
 * commit-time versioning — must
 *
 *  - run the paper's workloads oracle-clean (zero serializability
 *    violations, committed shadow memory == DataStore at quiescence);
 *  - agree with every other engine on the final memory image of a
 *    deterministic workload (engines may differ in cycles, abort
 *    counts and abort causes — never in committed values);
 *  - survive the adversarial chaos mixes (forced victimization, OS
 *    scheduling churn) across a seed grid with the oracle attached;
 *  - be byte-deterministic: the same config twice yields identical
 *    serialized results, and a campaign over the engine axis is
 *    byte-stable across sweep worker counts;
 *  - honor its version-management contract (buffered engines never
 *    publish NACK stalls and never grow the undo log).
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <sstream>
#include <vector>

#include "check/chaos.hh"
#include "harness/experiment.hh"
#include "sweep/campaign.hh"
#include "sweep/config_codec.hh"
#include "sweep/runner.hh"
#include "sweep/sweep_spec.hh"
#include "workload/microbench.hh"

namespace logtm {
namespace {

using sweep::CampaignResult;
using sweep::canonicalConfigKey;
using sweep::resultToJson;
using sweep::RunOptions;
using sweep::RunOutcome;
using sweep::runCampaign;
using sweep::runExperiments;
using sweep::SweepJob;
using sweep::SweepSpec;
using sweep::writeCampaignJson;

constexpr std::array<TmEngineKind, 3> kEngines = {
    TmEngineKind::LogTmSe,
    TmEngineKind::RequesterWins,
    TmEngineKind::Lazy,
};

/** Small hot machine (the chaos-harness shape) under @p engine. */
SystemConfig
smallSystem(TmEngineKind engine, uint64_t seed = 1)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.threadsPerCore = 2;
    cfg.l2Banks = 4;
    cfg.meshCols = 2;
    cfg.meshRows = 2;
    cfg.l1Bytes = 1024;  // tiny L1: exercise victimization paths too
    cfg.signature = sigBS(256);
    cfg.engine = engine;
    cfg.seed = seed;
    return cfg;
}

/**
 * Quiescent-state agreement between the oracle's committed shadow and
 * the DataStore: after every task finished, each word the oracle ever
 * adopted must hold its committed value in simulated memory — for the
 * eager engine because aborts restored it, for the buffered engines
 * because exactly the committing transactions published it.
 */
size_t
shadowMatchesDataStore(TmSystem &sys, const Oracle &oracle)
{
    size_t mismatches = 0;
    for (const auto &[key, value] : oracle.committedShadow()) {
        const Asid asid = static_cast<Asid>(key >> 56);
        const VirtAddr va = Oracle::keyVa(key);
        const PhysAddr pa = sys.os().translate(asid, va);
        if (sys.mem().data().load(pa) != value)
            ++mismatches;
    }
    return mismatches;
}

// ---------------------------------------------------------------------
// Oracle-clean workload grid: Table 2 benchmarks x engines.
// ---------------------------------------------------------------------

struct EngineCase
{
    TmEngineKind engine;
};

std::string
engineName(const testing::TestParamInfo<EngineCase> &info)
{
    std::string s = toString(info.param.engine);
    for (char &c : s)
        if (c == '-')
            c = '_';
    return s;
}

class EngineDifferential : public testing::TestWithParam<EngineCase>
{
};

TEST_P(EngineDifferential, PaperWorkloadsRunOracleClean)
{
    for (const Benchmark bench : paperBenchmarks()) {
        TmSystem sys(smallSystem(GetParam().engine));
        Oracle oracle(sys.sim().queue(), sys.stats(),
                      sys.sim().events(), sys.mem().data(), sys.os());
        sys.engine().setObserver(&oracle);

        WorkloadParams p;
        p.numThreads = 6;
        p.useTm = true;
        p.totalUnits = 48;
        p.seed = 7;
        std::unique_ptr<Workload> wl = makeWorkload(bench, sys, p);
        const WorkloadResult res = wl->run();

        EXPECT_EQ(res.units, 48u) << toString(bench);
        EXPECT_EQ(oracle.violationCount(), 0u)
            << toString(bench) << " under "
            << toString(GetParam().engine) << "\n"
            << oracle.report();
        EXPECT_EQ(shadowMatchesDataStore(sys, oracle), 0u)
            << toString(bench) << ": committed shadow diverged from "
            << "the DataStore at quiescence";
        EXPECT_GT(sys.stats().counterValue("tm.commits"), 0u);
    }
}

TEST_P(EngineDifferential, HotMicrobenchIsAtomicAndOracleClean)
{
    TmSystem sys(smallSystem(GetParam().engine));
    Oracle oracle(sys.sim().queue(), sys.stats(), sys.sim().events(),
                  sys.mem().data(), sys.os());
    sys.engine().setObserver(&oracle);

    WorkloadParams p;
    p.numThreads = 8;
    p.useTm = true;
    p.totalUnits = 160;
    MicrobenchConfig mb;
    mb.numCounters = 8;  // hot
    MicrobenchWorkload wl(sys, p, mb);
    wl.run();

    EXPECT_EQ(wl.counterSum(), wl.expectedIncrements());
    EXPECT_EQ(oracle.violationCount(), 0u) << oracle.report();
    EXPECT_EQ(shadowMatchesDataStore(sys, oracle), 0u);
}

// ---------------------------------------------------------------------
// Chaos-mix grid: fault mixes x seeds, oracle attached, per engine.
// ---------------------------------------------------------------------

TEST_P(EngineDifferential, ChaosMixGridStaysOracleClean)
{
    for (const char *mix : {"eviction", "scheduling"}) {
        for (uint64_t seed = 1; seed <= 4; ++seed) {
            ChaosParams p;
            p.seed = seed;
            p.faults = chaosMix(mix);
            p.engine = GetParam().engine;
            const ChaosResult r = runChaos(p);
            EXPECT_TRUE(r.ok())
                << "chaos failure under "
                << toString(GetParam().engine)
                << " (replay: bench_stress_chaos " << r.reproFlags
                << ")\n"
                << r.describe();
            if (GetParam().engine != TmEngineKind::LogTmSe) {
                EXPECT_NE(r.reproFlags.find(
                              "--engine=" +
                              toString(GetParam().engine)),
                          std::string::npos)
                    << r.reproFlags;
            }
        }
    }
}

TEST_P(EngineDifferential, RepeatChaosRunsAreIdentical)
{
    ChaosParams p;
    p.seed = 11;
    p.faults = chaosMix("everything");
    p.engine = GetParam().engine;
    const ChaosResult a = runChaos(p);
    const ChaosResult b = runChaos(p);
    EXPECT_TRUE(a.ok()) << a.describe();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.aborts, b.aborts);
    EXPECT_EQ(a.counterSum, b.counterSum);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.reproFlags, b.reproFlags);
}

// ---------------------------------------------------------------------
// Version-management contracts (negative space of each policy).
// ---------------------------------------------------------------------

TEST_P(EngineDifferential, VersioningContractHolds)
{
    TmSystem sys(smallSystem(GetParam().engine));
    WorkloadParams p;
    p.numThreads = 8;
    p.useTm = true;
    p.totalUnits = 96;
    MicrobenchConfig mb;
    mb.numCounters = 4;  // very hot: force real conflicts
    MicrobenchWorkload wl(sys, p, mb);
    wl.run();
    EXPECT_EQ(wl.counterSum(), wl.expectedIncrements());

    const StatsRegistry &st = sys.stats();
    if (GetParam().engine == TmEngineKind::LogTmSe) {
        // Eager: in-place stores grow the undo log; the buffered
        // engines' counters never even register.
        EXPECT_GT(st.counterValue("tm.logRecords"), 0u);
        EXPECT_EQ(st.sumCounters("tm.engine."), 0u);
    } else {
        // Buffered: no undo records, and — requester-wins or lazy —
        // conflicts never resolve to NACK stalls.
        EXPECT_EQ(st.counterValue("tm.logRecords"), 0u);
        EXPECT_EQ(st.counterValue("tm.stalls"), 0u);
        EXPECT_GT(st.counterValue("tm.engine.bufferedWrites"), 0u);
        EXPECT_GT(st.counterValue("tm.engine.publishedWords"), 0u);
    }
    if (GetParam().engine == TmEngineKind::RequesterWins) {
        EXPECT_EQ(st.counterValue("tm.engine.commitInvalidates"), 0u);
    }
}

// ---------------------------------------------------------------------
// Determinism: repeat-run and cross-worker-count byte identity.
// ---------------------------------------------------------------------

ExperimentConfig
engineExperiment(TmEngineKind engine, uint64_t seed = 1)
{
    ExperimentConfig cfg;
    cfg.bench = Benchmark::Microbench;
    cfg.sys = smallSystem(engine, seed);
    cfg.wl.numThreads = 8;
    cfg.wl.useTm = true;
    cfg.wl.totalUnits = 64;
    cfg.wl.seed = seed;
    cfg.mb.numCounters = 8;
    cfg.mb.readsPerTx = 2;
    cfg.mb.writesPerTx = 2;
    return cfg;
}

TEST_P(EngineDifferential, RepeatExperimentIsByteIdentical)
{
    RunOptions opt;
    opt.jobs = 1;
    const std::vector<RunOutcome> first =
        runExperiments({engineExperiment(GetParam().engine)}, opt);
    const std::vector<RunOutcome> second =
        runExperiments({engineExperiment(GetParam().engine)}, opt);
    ASSERT_TRUE(first[0].ok && second[0].ok);
    EXPECT_EQ(resultToJson(first[0].result),
              resultToJson(second[0].result));
    EXPECT_EQ(first[0].result.microCounterSum,
              first[0].result.microExpected);
    // The engine tag round-trips through the result JSON, and only
    // non-default engines serialize it (baseline compatibility).
    EXPECT_EQ(first[0].result.engine, toString(GetParam().engine));
    const bool tagged =
        resultToJson(first[0].result).find("\"engine\"") !=
        std::string::npos;
    EXPECT_EQ(tagged, GetParam().engine != TmEngineKind::LogTmSe);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineDifferential,
    testing::Values(EngineCase{TmEngineKind::LogTmSe},
                    EngineCase{TmEngineKind::RequesterWins},
                    EngineCase{TmEngineKind::Lazy}),
    engineName);

// ---------------------------------------------------------------------
// Cross-engine agreement on a fully deterministic final image.
// ---------------------------------------------------------------------

/**
 * Every thread increments every cell the same number of times inside
 * transactions, so the final image is interleaving-independent: each
 * cell must end at init + threads * iters under EVERY engine. Any
 * lost update, torn abort, or unpublished buffer breaks it.
 */
std::map<VirtAddr, uint64_t>
runIncrementMatrix(TmEngineKind engine)
{
    constexpr uint32_t kCells = 6;
    constexpr uint32_t kThreads = 6;
    constexpr uint32_t kIters = 8;
    constexpr VirtAddr base = 0x20'0000;
    constexpr uint64_t init = 100;
    auto cell = [](uint32_t i) { return base + i * blockBytes; };

    TmSystem sys(smallSystem(engine));
    Oracle oracle(sys.sim().queue(), sys.stats(), sys.sim().events(),
                  sys.mem().data(), sys.os());
    sys.engine().setObserver(&oracle);
    const Asid asid = sys.os().createProcess();
    for (uint32_t i = 0; i < kCells; ++i)
        sys.mem().data().store(sys.os().translate(asid, cell(i)), init);

    struct Worker
    {
        ThreadId tid;
        std::unique_ptr<ThreadCtx> tc;
    };
    std::vector<Worker> workers;
    std::vector<Task> tasks;
    uint32_t done = 0;
    for (uint32_t i = 0; i < kThreads; ++i) {
        Worker w;
        w.tid = sys.os().spawnThread(asid);
        w.tc = std::make_unique<ThreadCtx>(sys, w.tid);
        workers.push_back(std::move(w));
    }
    auto worker_main = [&](ThreadCtx &tc) -> Task {
        for (uint32_t it = 0; it < kIters; ++it) {
            for (uint32_t c = 0; c < kCells; ++c) {
                co_await tc.transaction([&, c](ThreadCtx &t) -> Task {
                    uint64_t v = 0;
                    TM_LOAD(t, v, cell(c));
                    TM_STORE(t, cell(c), v + 1);
                    co_return;
                });
                co_await tc.think(20);
            }
        }
    };
    for (auto &w : workers) {
        tasks.push_back(worker_main(*w.tc));
        tasks.back().setOnDone([&done]() { ++done; });
    }
    for (auto &task : tasks)
        task.start();
    sys.sim().runUntil([&]() { return done == workers.size(); });

    EXPECT_EQ(oracle.violationCount(), 0u)
        << toString(engine) << "\n" << oracle.report();
    EXPECT_EQ(shadowMatchesDataStore(sys, oracle), 0u)
        << toString(engine);

    std::map<VirtAddr, uint64_t> image;
    for (uint32_t i = 0; i < kCells; ++i)
        image[cell(i)] =
            sys.mem().data().load(sys.os().translate(asid, cell(i)));
    for (const auto &[va, value] : image)
        EXPECT_EQ(value, init + uint64_t{kThreads} * kIters)
            << toString(engine) << " cell " << std::hex << va;
    return image;
}

TEST(EngineAgreement, DeterministicWorkloadImagesMatchAcrossEngines)
{
    const std::map<VirtAddr, uint64_t> eager =
        runIncrementMatrix(TmEngineKind::LogTmSe);
    for (const TmEngineKind engine :
         {TmEngineKind::RequesterWins, TmEngineKind::Lazy}) {
        const std::map<VirtAddr, uint64_t> image =
            runIncrementMatrix(engine);
        EXPECT_EQ(image, eager)
            << toString(engine)
            << " diverged from the eager engine's final image";
    }
}

// ---------------------------------------------------------------------
// Campaign over the engine axis: byte-stable at any worker count.
// ---------------------------------------------------------------------

SweepSpec
engineAxisSpec()
{
    SweepSpec spec;
    spec.name = "engine_axis";
    spec.benchmarks = {Benchmark::Microbench};
    spec.signatures = {sigPerfect()};
    spec.engines = {TmEngineKind::LogTmSe, TmEngineKind::RequesterWins,
                    TmEngineKind::Lazy};
    spec.totalUnits = 64;
    spec.seeds = {1, 2};
    spec.system.numCores = 4;
    spec.system.threadsPerCore = 2;
    spec.system.l2Banks = 4;
    spec.system.meshCols = 2;
    spec.system.meshRows = 2;
    spec.mb.numCounters = 16;
    return spec;
}

TEST(EngineAxisCampaign, ExpansionTagsVariantsAndKeys)
{
    const std::vector<SweepJob> jobs =
        sweep::expand(engineAxisSpec());
    ASSERT_EQ(jobs.size(), 6u);  // 3 engines x 2 seeds
    EXPECT_EQ(jobs[0].cfg.sys.engine, TmEngineKind::LogTmSe);
    EXPECT_EQ(jobs[0].variant, "Perfect");
    EXPECT_EQ(jobs[2].cfg.sys.engine, TmEngineKind::RequesterWins);
    EXPECT_EQ(jobs[2].variant, "Perfect+eng:requester-wins");
    EXPECT_EQ(jobs[4].cfg.sys.engine, TmEngineKind::Lazy);
    EXPECT_EQ(jobs[4].variant, "Perfect+eng:lazy");
    // The default engine's canonical key carries no engine segment
    // (cache compatibility); non-default keys differ from it.
    const std::string base = canonicalConfigKey(jobs[0].cfg);
    EXPECT_EQ(base.find("engine="), std::string::npos);
    EXPECT_NE(canonicalConfigKey(jobs[2].cfg).find(
                  "engine=requester-wins"),
              std::string::npos);
    EXPECT_NE(canonicalConfigKey(jobs[2].cfg),
              canonicalConfigKey(jobs[4].cfg));
}

TEST(EngineAxisCampaign, ReportIsByteStableAcrossWorkerCounts)
{
    RunOptions serial;
    serial.jobs = 1;
    RunOptions parallel;
    parallel.jobs = 4;
    std::ostringstream a, b;
    writeCampaignJson(runCampaign(engineAxisSpec(), serial), a);
    writeCampaignJson(runCampaign(engineAxisSpec(), parallel), b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("+eng:requester-wins"), std::string::npos);
    EXPECT_NE(a.str().find("+eng:lazy"), std::string::npos);
}

TEST(EngineAxisCampaign, EveryCellCommitsAndStaysAtomic)
{
    RunOptions opt;
    opt.jobs = 2;
    const CampaignResult res = runCampaign(engineAxisSpec(), opt);
    ASSERT_EQ(res.outcomes.size(), 6u);
    for (size_t i = 0; i < res.outcomes.size(); ++i) {
        const RunOutcome &o = res.outcomes[i];
        ASSERT_TRUE(o.ok) << "job " << i << ": " << o.error;
        EXPECT_GT(o.result.commits, 0u) << "job " << i;
        EXPECT_EQ(o.result.microCounterSum, o.result.microExpected)
            << "job " << i << " (" << o.result.variant << ")";
    }
}

} // namespace
} // namespace logtm
