/**
 * @file
 * The piece every grid-shaped driver shares: take a list of
 * ExperimentConfigs, satisfy what the ResultStore already has, fan
 * the misses across host cores with the JobScheduler, persist fresh
 * results, and hand back outcomes in input order. Both the
 * `logtm_sweep` campaign CLI and the retrofitted bench binaries run
 * their grids through here.
 */

#ifndef LOGTM_SWEEP_RUNNER_HH
#define LOGTM_SWEEP_RUNNER_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "sweep/job_scheduler.hh"

namespace logtm::sweep {

struct RunOptions
{
    /** Host worker threads; 0 = hardware concurrency. */
    unsigned jobs = 1;
    /** Result-cache directory; empty disables caching. */
    std::string cacheDir;
    /** Per-attempt timeout in ms (0 = none) and attempt budget. */
    uint64_t timeoutMs = 0;
    unsigned maxAttempts = 2;
    /** Progress/ETA line on stderr. */
    bool progress = false;
    std::string label = "sweep";
};

struct RunOutcome
{
    ExperimentResult result;   ///< valid only when ok
    bool ok = false;
    bool fromCache = false;
    unsigned attempts = 0;     ///< 0 for cache hits
    std::string error;
};

/**
 * Run every config, returning outcomes in input order. Results are
 * deterministic: each simulation is single-threaded and seeded, so
 * the outcome of a config is identical at any worker count. When two
 * or more obs-enabled configs share an output directory, each is
 * redirected into a deterministic outDir/run_<k> subdirectory (k =
 * order of appearance in the input list, independent of worker count)
 * and a manifest.json in the shared directory maps each run_<k> back
 * to its config; a directory targeted by a single config keeps the
 * flat layout.
 */
std::vector<RunOutcome> runExperiments(std::vector<ExperimentConfig> cfgs,
                                       const RunOptions &opt);

/** Resolve a worker-count request: explicit flag value, else the
 *  LOGTM_JOBS environment variable, else @p dflt. */
unsigned jobsFromEnv(unsigned dflt = 1);

/** Cache-dir default: the LOGTM_CACHE_DIR environment variable, else
 *  @p dflt (empty = caching off). */
std::string cacheDirFromEnv(const std::string &dflt = "");

} // namespace logtm::sweep

#endif // LOGTM_SWEEP_RUNNER_HH
