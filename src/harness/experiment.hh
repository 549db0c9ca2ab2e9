/**
 * @file
 * Experiment harness: build a TmSystem + workload from a config, run
 * it, and snapshot the statistics the paper's tables and figures
 * report (commits, aborts, stalls, false-positive fraction,
 * read/write-set sizes, victimizations, execution time).
 */

#ifndef LOGTM_HARNESS_EXPERIMENT_HH
#define LOGTM_HARNESS_EXPERIMENT_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs_session.hh"
#include "workload/microbench.hh"
#include "workload/workload.hh"

namespace logtm {

enum class Benchmark {
    BerkeleyDB,
    Cholesky,
    Radiosity,
    Raytrace,
    Mp3d,
    Microbench,
};

std::string toString(Benchmark b);

/** Case-insensitive inverse of toString(Benchmark); false if unknown. */
bool parseBenchmark(const std::string &s, Benchmark *out);

/** The five paper benchmarks (Table 2 order). */
std::vector<Benchmark> paperBenchmarks();

/** Construct a workload instance. @p mb applies to Microbench only. */
std::unique_ptr<Workload> makeWorkload(Benchmark b, TmSystem &sys,
                                       const WorkloadParams &params,
                                       const MicrobenchConfig &mb = {});

/** Default unit count per benchmark, scaled for simulation time while
 *  preserving the paper's relative transaction counts. */
uint64_t defaultUnits(Benchmark b);

/** Observability options for a run (off when outDir is empty). */
struct ObsOptions
{
    std::string outDir;   ///< write stats.json (+ trace) here
    bool trace = false;   ///< also record and export a Chrome trace
    /** >0: sample counters + cycle buckets every N cycles and write
     *  timeseries.json alongside stats.json. */
    Cycle intervalCycles = 0;

    bool enabled() const { return !outDir.empty(); }
};

struct ExperimentConfig
{
    Benchmark bench = Benchmark::Microbench;
    SystemConfig sys;
    WorkloadParams wl;
    /** Microbench knobs (ignored by the paper benchmarks). */
    MicrobenchConfig mb;
    ObsOptions obs;
    /**
     * Optional cooperative cancellation, polled with the completion
     * condition (the sweep scheduler wires per-job timeouts through
     * this). A cancelled run returns truncated stats and must not be
     * treated as a completed experiment. Not part of the simulated
     * configuration: excluded from canonical keys and hashes.
     */
    std::function<bool()> cancel;

    /**
     * Durability runs only (sys.pm.enabled): crash the persist
     * domain at this cycle (0 = never). The run winds down, recovery
     * runs, and the recovery-oracle verdict lands in the result.
     */
    Cycle crashAtCycle = 0;

    /** Plant the torn-flush recovery defect (pm/recovery.hh);
     *  durability crash runs only. */
    bool tornFlushDefect = false;

    /** Plant the skip-subscribe hybrid defect (docs/HYBRID.md);
     *  hybrid runs only. */
    bool skipSubscribeDefect = false;
};

struct ExperimentResult
{
    std::string bench;
    std::string variant;        ///< "Lock" or signature name
    /** TM engine the run used ("logtm-se" | "requester-wins" |
     *  "lazy"); serialized only when non-default, so pre-engine
     *  result JSON and baselines stay byte-identical. */
    std::string engine = "logtm-se";
    Cycle cycles = 0;
    uint64_t units = 0;
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t stalls = 0;
    uint64_t conflictsTrue = 0;
    uint64_t conflictsFalse = 0;
    uint64_t summaryTraps = 0;
    uint64_t l1TxVictims = 0;
    uint64_t l2TxVictims = 0;
    uint64_t l2SigBroadcasts = 0;
    uint64_t logRecords = 0;
    uint64_t logFilterHits = 0;
    /** Microbench only: counter-sum atomicity check inputs (both 0
     *  for the paper benchmarks). The run is atomic iff they agree. */
    uint64_t microCounterSum = 0;
    uint64_t microExpected = 0;
    /** Aborts broken down by cause name (sums to aborts). */
    std::map<std::string, uint64_t> abortsByCause;
    /** Aggregate cycle buckets over all contexts, by bucket name;
     *  the values sum to numContexts * cycles (the fallback bucket is
     *  elided when zero, i.e. on every hybrid-off run). */
    std::map<std::string, uint64_t> cycleBuckets;
    double readAvg = 0, readMax = 0;
    double writeAvg = 0, writeMax = 0;
    double undoRecordsAvg = 0;
    /**
     * Durability runs only (sys.pm.enabled; all zero otherwise and
     * excluded from serialized output so existing baselines are
     * untouched). See src/pm/.
     */
    bool pmEnabled = false;
    bool crashed = false;
    Cycle crashCycle = 0;
    uint64_t pmRecords = 0;
    uint64_t pmFlushes = 0;
    uint64_t pmDurableRecords = 0;
    uint32_t recoveryInflightFrames = 0;
    uint64_t recoveryUndoApplied = 0;
    /** Recovery-oracle mismatches; 0 = recovered image consistent
     *  with the durable committed prefix. */
    uint64_t recoveryMismatches = 0;

    /**
     * Hybrid-TM runs only (sys.hybrid.enabled; all zero otherwise and
     * excluded from serialized output so existing baselines are
     * untouched). See src/hybrid/.
     */
    bool hybridEnabled = false;
    uint64_t hyHwCommits = 0;
    uint64_t hySwCommits = 0;
    uint64_t hyLockCommits = 0;
    uint64_t hyEscalations = 0;
    uint64_t hyLockAcquires = 0;
    uint64_t hyCapacityAborts = 0;
    uint64_t hySubscriptionAborts = 0;

    /**
     * Host wall-clock seconds of the simulation phase alone (the
     * workload run; system construction and stat collection
     * excluded). For simulator-throughput measurement (bench_perf);
     * deliberately NOT serialized anywhere deterministic output is
     * promised (sweep reports, stats.json).
     */
    double hostSeconds = 0;

    /** Fraction of signalled conflicts that were false positives. */
    double
    falsePositivePct() const
    {
        const uint64_t total = conflictsTrue + conflictsFalse;
        return total ? 100.0 * static_cast<double>(conflictsFalse) /
                static_cast<double>(total)
                     : 0.0;
    }
};

/** Run one experiment on a fresh system. */
ExperimentResult runExperiment(const ExperimentConfig &cfg);

/** Speedup of @p tm relative to @p lock (same work, lower is slower). */
double speedupVs(const ExperimentResult &tm, const ExperimentResult &lock);

} // namespace logtm

#endif // LOGTM_HARNESS_EXPERIMENT_HH
