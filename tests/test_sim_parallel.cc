/**
 * @file
 * Simulations side by side on host threads. The simulator is one
 * serial event loop; host parallelism comes only from the campaign
 * runner (`--jobs`), whose workers each own one independent
 * simulation. Nothing mutable may be shared between those
 * simulations, so every artifact — stats.json, timeseries.json and
 * golden-trace bytes — must be byte-identical whether a configuration
 * runs alone or beside copies of itself and of other configurations.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/trace_capture.hh"
#include "obs/trace_pin.hh"
#include "sweep/runner.hh"

namespace logtm {
namespace {

namespace fs = std::filesystem;

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing " << p;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

struct Artifacts
{
    ExperimentResult res;
    std::string stats;
    std::string timeseries;
};

/** Run @p cfgs through the campaign runner at @p jobs host workers
 *  with observability on, returning each result plus the raw bytes
 *  of its emitted artifacts, in input order. */
std::vector<Artifacts>
runSideBySide(std::vector<ExperimentConfig> cfgs, unsigned jobs,
              const std::string &tag)
{
    std::vector<fs::path> dirs;
    for (size_t i = 0; i < cfgs.size(); ++i) {
        const fs::path dir = fs::temp_directory_path() /
            ("logtm_simpar_" + tag + "_j" + std::to_string(jobs) +
             "_" + std::to_string(i));
        fs::remove_all(dir);
        cfgs[i].obs.outDir = dir.string();
        if (cfgs[i].obs.intervalCycles == 0)
            cfgs[i].obs.intervalCycles = 2000;
        dirs.push_back(dir);
    }
    sweep::RunOptions opt;
    opt.jobs = jobs;
    const std::vector<sweep::RunOutcome> outcomes =
        sweep::runExperiments(cfgs, opt);

    std::vector<Artifacts> out;
    for (size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].ok) << tag << " #" << i << ": "
                                    << outcomes[i].error;
        Artifacts a;
        a.res = outcomes[i].result;
        a.stats = readFile(dirs[i] / "stats.json");
        a.timeseries = readFile(dirs[i] / "timeseries.json");
        fs::remove_all(dirs[i]);
        out.push_back(std::move(a));
    }
    return out;
}

void
expectSameArtifacts(const Artifacts &base, const Artifacts &got,
                    const std::string &what)
{
    EXPECT_EQ(base.stats, got.stats)
        << what << ": stats.json diverges";
    EXPECT_EQ(base.timeseries, got.timeseries)
        << what << ": timeseries.json diverges";
    EXPECT_EQ(base.res.cycles, got.res.cycles) << what;
    EXPECT_EQ(base.res.commits, got.res.commits) << what;
    EXPECT_EQ(base.res.aborts, got.res.aborts) << what;
}

/** The contended microbench on the default (Table 2) system. */
ExperimentConfig
contendedMicrobench()
{
    ExperimentConfig cfg;
    cfg.bench = Benchmark::Microbench;
    cfg.wl.numThreads = cfg.sys.numContexts();
    cfg.wl.useTm = true;
    cfg.wl.totalUnits = 512;
    cfg.mb.numCounters = 8;  // heavy contention
    cfg.mb.readsPerTx = 2;
    cfg.mb.writesPerTx = 2;
    return cfg;
}

/** One configuration run alone, then as 2 and 4 copies on as many
 *  workers: every copy matches the lone run byte for byte. */
TEST(SimParallel, MicrobenchArtifactsIdenticalAcrossJobs)
{
    const ExperimentConfig cfg = contendedMicrobench();
    const std::vector<Artifacts> alone = runSideBySide({cfg}, 1, "micro");
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_GT(alone[0].res.commits, 0u);
    for (unsigned jobs : {2u, 4u}) {
        const std::vector<Artifacts> copies = runSideBySide(
            std::vector<ExperimentConfig>(jobs, cfg), jobs, "micro");
        ASSERT_EQ(copies.size(), jobs);
        for (unsigned i = 0; i < jobs; ++i)
            expectSameArtifacts(alone[0], copies[i],
                                "jobs=" + std::to_string(jobs) +
                                " copy " + std::to_string(i));
    }
}

/** The microbench atomicity invariant holds for every seed when the
 *  campaign runner's workers execute the simulations in parallel, and
 *  each result equals its serial run. */
TEST(SimParallel, MicrobenchAtomicityHoldsUnderParallelExecutor)
{
    std::vector<ExperimentConfig> cfgs;
    for (uint64_t seed : {1, 2, 3, 4}) {
        ExperimentConfig cfg = contendedMicrobench();
        cfg.wl.seed = seed;
        cfgs.push_back(cfg);
    }
    const std::vector<Artifacts> serial =
        runSideBySide(cfgs, 1, "micro_atomic");
    const std::vector<Artifacts> parallel =
        runSideBySide(cfgs, 4, "micro_atomic");
    ASSERT_EQ(serial.size(), cfgs.size());
    ASSERT_EQ(parallel.size(), cfgs.size());
    for (size_t i = 0; i < cfgs.size(); ++i) {
        const ExperimentResult &r = parallel[i].res;
        EXPECT_EQ(r.microCounterSum, r.microExpected) << "seed #" << i;
        EXPECT_GT(r.microCounterSum, 0u) << "seed #" << i;
        expectSameArtifacts(serial[i], parallel[i],
                            "seed #" + std::to_string(i));
    }
}

/** The canonical event stream (the golden-trace format) is
 *  byte-identical when captured alone and when four captures run at
 *  once on separate threads. */
TEST(SimParallel, GoldenTraceBytesIdenticalAcrossJobs)
{
    constexpr unsigned kThreads = 4;
    for (const TmEngineKind engine :
         {TmEngineKind::LogTmSe, TmEngineKind::RequesterWins}) {
        TraceCaptureOptions opt;
        opt.engine = engine;
        const std::vector<ObsEvent> base = captureRunEvents(opt);
        ASSERT_FALSE(base.empty());
        const std::string baseJson = renderTraceJson(base, base.size());

        std::vector<std::string> got(kThreads);
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < kThreads; ++t) {
            threads.emplace_back([&opt, &got, t] {
                const std::vector<ObsEvent> ev = captureRunEvents(opt);
                got[t] = renderTraceJson(ev, ev.size());
            });
        }
        for (std::thread &th : threads)
            th.join();
        for (unsigned t = 0; t < kThreads; ++t)
            EXPECT_EQ(baseJson, got[t])
                << "engine=" << toString(engine) << " thread " << t;
    }
}

/** A mixed bag of configurations — transactional, lazy engine,
 *  snooping coherence and lock-based — gives the same artifacts for
 *  each configuration at every point of the jobs axis {1, 2, 4}. */
TEST(SimParallel, ChaosMixAgreesAcrossJobsAxis)
{
    std::vector<ExperimentConfig> mix;

    ExperimentConfig tm = contendedMicrobench();
    tm.wl.totalUnits = 256;
    mix.push_back(tm);

    ExperimentConfig lazy = tm;
    lazy.sys.engine = TmEngineKind::Lazy;
    mix.push_back(lazy);

    ExperimentConfig snoop = tm;
    snoop.sys.coherence = CoherenceKind::Snooping;
    snoop.sys.numCores = 4;
    snoop.sys.threadsPerCore = 2;
    snoop.sys.l2Banks = 4;
    snoop.sys.meshCols = 2;
    snoop.sys.meshRows = 2;
    snoop.wl.numThreads = snoop.sys.numContexts();
    mix.push_back(snoop);

    ExperimentConfig lock = tm;
    lock.wl.useTm = false;
    mix.push_back(lock);

    const char *const tags[] = {"tm", "lazy", "snooping", "lock"};
    const std::vector<Artifacts> base = runSideBySide(mix, 1, "mix");
    ASSERT_EQ(base.size(), mix.size());
    for (unsigned jobs : {2u, 4u}) {
        const std::vector<Artifacts> got =
            runSideBySide(mix, jobs, "mix");
        ASSERT_EQ(got.size(), mix.size());
        for (size_t i = 0; i < mix.size(); ++i)
            expectSameArtifacts(base[i], got[i],
                                std::string(tags[i]) + " jobs=" +
                                std::to_string(jobs));
    }
}

} // namespace
} // namespace logtm
