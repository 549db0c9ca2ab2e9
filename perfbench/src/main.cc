/**
 * @file
 * perfbench: the simulator benchmark. One invocation runs one named
 * workload for a fixed host-time budget on one simulation thread (the
 * serial event loop), checks every run for correctness, and prints its
 * metrics as one JSON object on the last line of stdout.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out FILE] [--spans-out FILE] [--commit ID]
 *             [--plant-digest-mismatch]
 *
 * The seed fixes a set of simulation seeds; after one warm-up run,
 * every pass runs each of them once on a cold machine, and passes
 * repeat until the budget is spent (two passes at least, so every seed
 * is compared with itself). A fixed host reference (calibrate.hh) is
 * timed before every run, and each host time is scaled to nominal host
 * speed by it; host figures are per-seed medians of the scaled times.
 * Simulated figures come from the first pass and are exact. --trace 1 reports the per-layer metrics
 * instead: spans around the benchmark's calls into each layer,
 * stats-registry counts, and the layer microbenches (layers.hh).
 * See perfbench/README.md for the metric glossary.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hh"
#include "harness/experiment.hh"
#include "layers.hh"
#include "obs/json.hh"
#include "os/tm_system.hh"
#include "spans.hh"
#include "workload/microbench.hh"

using namespace logtm;
using perfbench::Clock;
using perfbench::HostReference;
using perfbench::median;
using perfbench::secondsSince;
using perfbench::SpanRecorder;

namespace {

struct WorkloadSpec
{
    const char *name;
    ExperimentConfig cfg;
    /** Simulation seeds per invocation: enough that one seed's own
     *  simulated behaviour averages out of the figures. */
    uint64_t seeds;
};

/** The Table 1 machine running @p b under LogTM-SE with BS_2048. */
ExperimentConfig
table1(Benchmark b, uint64_t unitScale)
{
    ExperimentConfig cfg;
    cfg.bench = b;
    cfg.sys.engine = TmEngineKind::LogTmSe;
    cfg.sys.signature = sigBS(2048);
    cfg.wl.numThreads = cfg.sys.numContexts();
    cfg.wl.useTm = true;
    cfg.wl.totalUnits = defaultUnits(b) * unitScale;
    return cfg;
}

/** 256 contexts (32 cores x 8 SMT) on an 8x4 mesh with 32 L2 banks. */
ExperimentConfig
cmp256()
{
    ExperimentConfig cfg;
    cfg.bench = Benchmark::Microbench;
    cfg.sys.numCores = 32;
    cfg.sys.threadsPerCore = 8;
    cfg.sys.meshCols = 8;
    cfg.sys.meshRows = 4;
    cfg.sys.l2Banks = 32;
    cfg.sys.signature = sigBS(2048);
    cfg.wl.numThreads = cfg.sys.numContexts();
    cfg.wl.totalUnits = 16384;
    cfg.mb.numCounters = 8192;
    cfg.mb.readsPerTx = 4;
    cfg.mb.writesPerTx = 4;
    return cfg;
}

std::vector<WorkloadSpec>
workloads()
{
    return {
        {"bdb-contended", table1(Benchmark::BerkeleyDB, 16), 4},
        {"raytrace-readmostly", table1(Benchmark::Raytrace, 8), 4},
        // About 2 s of host time per run: fewer seeds leave room for
        // repeats within the budget.
        {"cmp256-microbench", cmp256(), 3},
    };
}

// ---- one run --------------------------------------------------------

/** What one cold-machine run measured and what its checks found. */
struct RunSample
{
    uint64_t simSeed = 0;
    bool traced = false;
    // Host seconds.
    double setupS = 0;      ///< TmSystem construction + makeWorkload
    double constructS = 0;  ///< TmSystem construction alone
    double simS = 0;        ///< Workload::run (the simulation phase)
    double finalizeS = 0;   ///< cycle-accounting finalize
    double snapshotS = 0;   ///< stats snapshot + digest
    double runS = 0;        ///< construction through snapshot
    double refS = 0;        ///< the host reference timed before the run
    /** Further setups of the same seed, timed and torn down unrun. */
    std::vector<double> extraSetupS;
    // Simulated results.
    Cycle cycles = 0;
    uint64_t units = 0;
    uint64_t events = 0;
    std::map<std::string, uint64_t> counters;
    uint64_t digest = 0;
    // Correctness.
    std::vector<std::string> failures;

    uint64_t
    counter(const std::string &name) const
    {
        const auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }
};

/** FNV-1a over the run's simulated cycles, units and every counter. */
uint64_t
digestOf(const RunSample &s)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *p, size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    mix(&s.cycles, sizeof s.cycles);
    mix(&s.units, sizeof s.units);
    for (const auto &[name, value] : s.counters) {
        mix(name.data(), name.size());
        mix(&value, sizeof value);
    }
    return h;
}

RunSample
runOnce(const ExperimentConfig &base, uint64_t simSeed,
        SpanRecorder &spans)
{
    ExperimentConfig cfg = base;
    cfg.sys.seed = simSeed;
    cfg.wl.seed = simSeed;

    RunSample s;
    s.simSeed = simSeed;
    s.traced = spans.enabled();
    SpanRecorder::Scope whole(spans, "harness.run_once");

    const auto t0 = Clock::now();
    std::unique_ptr<TmSystem> sys;
    {
        SpanRecorder::Scope span(spans, "harness.construct");
        sys = std::make_unique<TmSystem>(cfg.sys);
    }
    s.constructS = secondsSince(t0);
    std::unique_ptr<Workload> wl;
    {
        SpanRecorder::Scope span(spans, "workload.make");
        wl = makeWorkload(cfg.bench, *sys, cfg.wl, cfg.mb);
    }
    s.setupS = secondsSince(t0);

    WorkloadResult run;
    {
        SpanRecorder::Scope span(spans, "harness.run");
        const auto ts = Clock::now();
        run = wl->run();
        s.simS = secondsSince(ts);
    }
    {
        SpanRecorder::Scope span(spans, "harness.finalize");
        const auto tf = Clock::now();
        sys->finalizeCycleAccounting();
        s.finalizeS = secondsSince(tf);
    }
    {
        SpanRecorder::Scope span(spans, "harness.snapshot");
        const auto tn = Clock::now();
        s.cycles = run.cycles;
        s.units = run.units;
        s.events = sys->sim().eventsExecuted();
        for (const auto &[name, ctr] : sys->stats().counters())
            s.counters[name] = ctr.value();
        s.digest = digestOf(s);
        s.snapshotS = secondsSince(tn);
    }
    s.runS = secondsSince(t0);

    // ---- correctness gate (outside the timed span) -----------------
    if (run.units != cfg.wl.totalUnits || wl->unitsCompleted() != run.units)
        s.failures.push_back("units completed != units configured");
    uint64_t bucketSum = 0;
    for (const auto &[name, value] : s.counters) {
        if (name.rfind("tm.cycles.total.", 0) == 0)
            bucketSum += value;
    }
    const uint64_t contexts = cfg.sys.numContexts();
    if (s.counter("tm.cycles.elapsed") != run.cycles ||
        bucketSum != contexts * run.cycles)
        s.failures.push_back("cycle buckets != contexts x cycles");
    if (auto *mb = dynamic_cast<MicrobenchWorkload *>(wl.get())) {
        const uint64_t expected = cfg.mb.writesPerTx * cfg.wl.totalUnits;
        if (mb->counterSum() != expected ||
            mb->expectedIncrements() != expected)
            s.failures.push_back("microbench counter sum != increments");
    }
    return s;
}

/** Setups timed per run on top of the run's own, so setup_s is a
 *  median over many samples even when runs are few and long. */
constexpr int kExtraSetups = 4;

/** Host seconds of one more TmSystem construction plus makeWorkload
 *  for @p simSeed; the machine is torn down without running. */
double
timeSetup(const ExperimentConfig &base, uint64_t simSeed,
          SpanRecorder &spans)
{
    ExperimentConfig cfg = base;
    cfg.sys.seed = simSeed;
    cfg.wl.seed = simSeed;
    SpanRecorder::Scope span(spans, "harness.setup_only");
    const auto t0 = Clock::now();
    auto sys = std::make_unique<TmSystem>(cfg.sys);
    auto wl = makeWorkload(cfg.bench, *sys, cfg.wl, cfg.mb);
    const double seconds = secondsSince(t0);
    wl.reset();
    sys.reset();
    return seconds;
}

// ---- aggregation ----------------------------------------------------

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Samples grouped by simulation seed, first pass first. */
using BySeed = std::map<uint64_t, std::vector<RunSample *>>;

/**
 * Sum over seeds of the per-seed median of @p field among runs with
 * the given tracing state. With @p scale, each run's time is first
 * scaled to nominal host speed by the reference timed before it
 * (HostReference::scaled), which takes out most of a shared host's
 * drift; without it the times are plain wall-clock.
 */
double
sumOfSeedMedians(const BySeed &bySeed, double RunSample::*field,
                 bool traced, bool scale = true)
{
    double total = 0;
    for (const auto &[seed, samples] : bySeed) {
        std::vector<double> v;
        for (const RunSample *s : samples) {
            if (s->traced == traced) {
                v.push_back(scale ? HostReference::scaled(s->*field, s->refS)
                                  : s->*field);
            }
        }
        total += median(v);
    }
    return total;
}

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        items_.push_back({name, value, unit});
    }

    void
    write(JsonWriter &w) const
    {
        w.beginObject();
        for (const Item &it : items_) {
            w.key(it.name);
            w.beginObject();
            w.field("value", it.value);
            w.field("unit", it.unit);
            w.endObject();
        }
        w.endObject();
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Item> items_;
};

// ---- run facts ------------------------------------------------------

uint64_t
peakRssKb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_maxrss);
}

/** Non-empty when this build measures a different program than the
 *  optimized one (unoptimized or sanitizer-instrumented). */
std::string
suspectBuild()
{
    std::string why;
#if !defined(__OPTIMIZE__)
    why += "unoptimized ";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    why += "sanitizer ";
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) == "Debug")
        why += "Debug ";
    return why;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out;
    std::string spansOut;
    std::string commit = "unknown";
    bool plantDigestMismatch = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--out FILE] "
                 "[--spans-out FILE] [--commit ID] "
                 "[--plant-digest-mismatch]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = val();
        else if (arg == "--seed")
            a.seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::strtod(val().c_str(), nullptr);
        else if (arg == "--trace")
            a.trace = val() == "1";
        else if (arg == "--out")
            a.out = val();
        else if (arg == "--spans-out")
            a.spansOut = val();
        else if (arg == "--commit")
            a.commit = val();
        else if (arg == "--plant-digest-mismatch")
            a.plantDigestMismatch = true;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (a.seconds <= 0)
        usage("--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec *spec = nullptr;
    const std::vector<WorkloadSpec> all = workloads();
    for (const WorkloadSpec &w : all) {
        if (args.workload == w.name)
            spec = &w;
    }
    if (!spec)
        usage(("unknown workload '" + args.workload + "'").c_str());

    const std::string suspect = suspectBuild();
    if (!suspect.empty()) {
        std::fprintf(stderr,
                     "perfbench: WARNING: %sbuild -- these numbers "
                     "measure a different program than the optimized "
                     "simulator\n",
                     suspect.c_str());
    }

    std::vector<uint64_t> simSeeds;
    for (uint64_t i = 0; i < spec->seeds; ++i)
        simSeeds.push_back(args.seed * 1000 + i + 1);

    // ---- measured passes --------------------------------------------
    SpanRecorder spans(false);
    HostReference reference;
    // The budget covers the warm-up and the runExperiment cross-check
    // below, so an invocation takes about --seconds on every workload.
    const auto start = Clock::now();
    // Warm-up, not measured: the first reference and run pay for page
    // faults, allocator growth and cold host caches. The cross-check
    // repeats the same run, so this also sizes its share of the budget.
    reference.timeOnce();
    runOnce(spec->cfg, simSeeds.front(), spans);
    const double crossCheckS = secondsSince(start);

    std::vector<RunSample> samples;
    samples.reserve(256);
    uint64_t peakKb = 0;
    double lastStepS = 0;
    // Two full passes at least, so every seed meets itself; after
    // that, stop before a run that would overrun the budget.
    bool spent = false;
    for (int pass = 0; !spent; ++pass) {
        // Traced invocations alternate traced and untraced passes so
        // the tracing overhead is measured on the same seeds.
        spans.setEnabled(args.trace && pass % 2 == 0);
        for (const uint64_t seed : simSeeds) {
            if (pass >= 2 && secondsSince(start) + lastStepS + crossCheckS >
                                 args.seconds) {
                spent = true;
                break;
            }
            const auto step = Clock::now();
            double refS;
            {
                SpanRecorder::Scope span(spans, "harness.host_reference");
                refS = reference.timeOnce();
            }
            RunSample s = runOnce(spec->cfg, seed, spans);
            s.refS = refS;
            for (int i = 0; i < kExtraSetups; ++i)
                s.extraSetupS.push_back(timeSetup(spec->cfg, seed, spans));
            lastStepS = secondsSince(step);
            if (args.plantDigestMismatch && pass == 1 &&
                seed == simSeeds.front())
                s.digest ^= 1;
            // Later passes are compared by digest alone; keeping their
            // counters would make memory grow with the host's speed.
            if (pass > 0)
                s.counters.clear();
            samples.push_back(std::move(s));
        }
        if (pass == 0)
            peakKb = peakRssKb();
    }
    const double measuredS = secondsSince(start);
    spans.setEnabled(args.trace);

    BySeed bySeed;
    for (RunSample &s : samples)
        bySeed[s.simSeed].push_back(&s);
    for (auto &[seed, runs] : bySeed) {
        for (RunSample *s : runs) {
            if (s->digest != runs.front()->digest) {
                s->failures.push_back(
                    "simulated-counter digest differs from the "
                    "seed's first run");
            }
        }
    }

    // The library's own entry point must reproduce the benchmark's
    // manual construction of the first seed exactly.
    RunSample &first = *bySeed.begin()->second.front();
    {
        SpanRecorder::Scope span(spans, "harness.run_experiment");
        ExperimentConfig cfg = spec->cfg;
        cfg.sys.seed = cfg.wl.seed = first.simSeed;
        const ExperimentResult r = runExperiment(cfg);
        if (r.cycles != first.cycles ||
            r.commits != first.counter("tm.commits") ||
            r.aborts != first.counter("tm.aborts")) {
            first.failures.push_back(
                "runExperiment disagrees with the benchmark's run");
        }
    }

    uint64_t failed = 0;
    for (const RunSample &s : samples) {
        if (!s.failures.empty()) {
            ++failed;
            for (const std::string &f : s.failures)
                std::fprintf(stderr, "perfbench: FAILED seed %llu: %s\n",
                             static_cast<unsigned long long>(s.simSeed),
                             f.c_str());
        }
    }
    const uint64_t attempted = samples.size();

    // Exact simulated totals over the first pass (one run per seed).
    auto firstPassSum = [&bySeed](const std::string &name) {
        double total = 0;
        for (const auto &[seed, runs] : bySeed)
            total += static_cast<double>(runs.front()->counter(name));
        return total;
    };
    double cycles = 0;
    double events = 0;
    for (const auto &[seed, runs] : bySeed) {
        cycles += static_cast<double>(runs.front()->cycles);
        events += static_cast<double>(runs.front()->events);
    }
    const double nSeeds = static_cast<double>(bySeed.size());
    const bool untraced = false;
    const double simS =
        sumOfSeedMedians(bySeed, &RunSample::simS, untraced);
    std::vector<double> setup;
    std::vector<double> refs;
    for (const RunSample &s : samples) {
        setup.push_back(HostReference::scaled(s.setupS, s.refS));
        for (const double extra : s.extraSetupS)
            setup.push_back(HostReference::scaled(extra, s.refS));
        refs.push_back(s.refS);
    }

    Metrics m;
    if (!args.trace) {
        m.add("sim_cycles_per_s", ratio(cycles, simS), "cycles/s");
        m.add("run_s",
              sumOfSeedMedians(bySeed, &RunSample::runS, untraced) /
                  nSeeds,
              "s");
        m.add("setup_s", median(setup), "s");
        m.add("peak_rss_mb", static_cast<double>(peakKb) / 1024.0,
              "MB");
        m.add("sim_cycles", cycles / nSeeds, "cycles");
        m.add("pass_frac",
              static_cast<double>(attempted - failed) /
                  static_cast<double>(attempted),
              "ratio");
    } else {
        const std::vector<perfbench::LayerTiming> layers =
            perfbench::runLayerMicrobenches(spans);
        for (const perfbench::LayerTiming &l : layers) {
            if (!l.ok) {
                ++failed;
                std::fprintf(stderr,
                             "perfbench: FAILED microbench %s: its "
                             "sanity check did not hold\n",
                             l.metric.c_str());
            }
        }
        const double per = 1.0 / nSeeds;
        m.add("sim.events", events * per, "count");
        m.add("sim.events_per_kcycle", 1000.0 * ratio(events, cycles),
              "1/kcycle");
        m.add("sim.events_per_s", ratio(events, simS), "1/s");
        m.add("net.messages", firstPassSum("net.messages") * per, "count");
        m.add("net.hops", firstPassSum("net.hops") * per, "count");
        const double hits = firstPassSum("l1.hits");
        const double misses = firstPassSum("l1.misses");
        m.add("mem.l1_hits", hits * per, "count");
        m.add("mem.l1_misses", misses * per, "count");
        m.add("mem.l1_hit_ratio", ratio(hits, hits + misses), "ratio");
        const double dirReq = firstPassSum("l2.requests");
        const double dirNack = firstPassSum("l2.nacksSent");
        m.add("mem.dir_requests", dirReq * per, "count");
        m.add("mem.dir_nacks", dirNack * per, "count");
        m.add("mem.dir_useful_ratio", ratio(dirReq - dirNack, dirReq),
              "ratio");
        m.add("mem.dram_accesses", firstPassSum("dram.accesses") * per,
              "count");
        m.add("mem.l1_tx_victims", firstPassSum("l1.txVictims") * per,
              "count");
        const double fpFalse = firstPassSum("tm.conflictsFalse");
        const double fpTrue = firstPassSum("tm.conflictsTrue");
        m.add("sig.false_positive_pct",
              100.0 * ratio(fpFalse, fpFalse + fpTrue), "%");
        const double commits = firstPassSum("tm.commits");
        const double aborts = firstPassSum("tm.aborts");
        const double logRecords = firstPassSum("tm.logRecords");
        const double filterHits = firstPassSum("tm.logFilterHits");
        m.add("tm.commits", commits * per, "count");
        m.add("tm.aborts", aborts * per, "count");
        m.add("tm.stalls", firstPassSum("tm.stalls") * per, "count");
        m.add("tm.commit_ratio", ratio(commits, commits + aborts),
              "ratio");
        m.add("tm.aborts_per_commit", ratio(aborts, commits), "ratio");
        m.add("tm.log_records", logRecords * per, "count");
        m.add("tm.log_filter_hit_ratio",
              ratio(filterHits, filterHits + logRecords), "ratio");
        const double ctxCycles = firstPassSum("tm.cycles.elapsed") *
            static_cast<double>(spec->cfg.sys.numContexts());
        m.add("obs.stall_share",
              ratio(firstPassSum("tm.cycles.total.stall"), ctxCycles),
              "ratio");
        m.add("obs.aborted_work_share",
              ratio(firstPassSum("tm.cycles.total.abortedWork"),
                    ctxCycles),
              "ratio");
        m.add("obs.backoff_share",
              ratio(firstPassSum("tm.cycles.total.backoff"), ctxCycles),
              "ratio");
        const bool traced = true;
        m.add("harness.construct_s",
              sumOfSeedMedians(bySeed, &RunSample::constructS, traced) *
                  per,
              "s");
        m.add("harness.run_s",
              sumOfSeedMedians(bySeed, &RunSample::simS, traced) * per,
              "s");
        m.add("harness.finalize_s",
              sumOfSeedMedians(bySeed, &RunSample::finalizeS, traced) *
                  per,
              "s");
        m.add("harness.snapshot_s",
              sumOfSeedMedians(bySeed, &RunSample::snapshotS, traced) *
                  per,
              "s");
        m.add("trace.overhead_s",
              (sumOfSeedMedians(bySeed, &RunSample::runS, traced) -
               sumOfSeedMedians(bySeed, &RunSample::runS, untraced)) *
                  per,
              "s");
        for (const perfbench::LayerTiming &l : layers) {
            m.add(l.metric, l.nsPerOp, "ns");
            std::fprintf(stderr, "perfbench: %-28s %s\n",
                         l.metric.c_str(), l.input.c_str());
        }
    }

    const bool correct = failed == 0;
    auto writeResult = [&](JsonWriter &w) {
        w.beginObject();
        w.field("correct", correct);
        w.field("attempted", attempted);
        w.field("failed", failed);
        w.key("metrics");
        m.write(w);
        w.endObject();
    };
    std::ostringstream line;
    {
        JsonWriter w(line);
        writeResult(w);
    }

    if (!args.out.empty()) {
        std::ofstream os(args.out);
        JsonWriter w(os);
        w.beginObject();
        w.field("schema", "logtm-perfbench-v1");
        w.field("workload", spec->name);
        w.field("seed", args.seed);
        w.field("trace", args.trace);
        w.field("nproc",
                static_cast<uint64_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
        w.field("compiler", "clang " __clang_version__);
#else
        w.field("compiler", "gcc " __VERSION__);
#endif
        w.field("build_type", PERFBENCH_BUILD_TYPE);
        w.field("suspect_build", suspect);
        w.field("commit", args.commit);
        w.field("measured_s", measuredS);
        // Host times above are at nominal host speed; these are the
        // reference behind the scaling and the plain wall-clock view.
        w.field("reference_nominal_s", HostReference::kNominalSeconds);
        w.field("reference_median_s", median(refs));
        const double wallSimS =
            sumOfSeedMedians(bySeed, &RunSample::simS, untraced, false);
        w.field("wall_sim_cycles_per_s", ratio(cycles, wallSimS));
        w.field("wall_run_s",
                sumOfSeedMedians(bySeed, &RunSample::runS, untraced, false) /
                    nSeeds);
        w.field("failed_frac",
                static_cast<double>(failed) / static_cast<double>(attempted));
        w.key("sim_seeds");
        w.beginArray();
        for (const uint64_t s : simSeeds)
            w.value(s);
        w.endArray();
        w.key("runs");
        w.beginArray();
        for (const RunSample &s : samples) {
            w.beginObject();
            w.field("sim_seed", s.simSeed);
            w.field("traced", s.traced);
            w.field("sim_cycles", static_cast<uint64_t>(s.cycles));
            w.field("events", s.events);
            w.field("setup_s", s.setupS);
            w.field("sim_s", s.simS);
            w.field("run_s", s.runS);
            w.field("reference_s", s.refS);
            w.field("digest", s.digest);
            if (args.trace && !s.counters.empty()) {
                // The stats-registry counts behind the per-layer ratios
                // (first pass only; later passes keep just the digest).
                w.key("counters");
                w.beginObject();
                for (const auto &[name, value] : s.counters)
                    w.field(name, value);
                w.endObject();
            }
            w.key("failures");
            w.beginArray();
            for (const std::string &f : s.failures)
                w.value(f);
            w.endArray();
            w.endObject();
        }
        w.endArray();
        w.key("result");
        writeResult(w);
        w.endObject();
        os << "\n";
        if (!os) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.out.c_str());
            return 2;
        }
    }
    if (args.trace && !args.spansOut.empty() &&
        !spans.writeChromeTrace(args.spansOut)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.spansOut.c_str());
        return 2;
    }

    std::printf("%s\n", line.str().c_str());
    return correct ? 0 : 1;
}
