#include "sweep/runner.hh"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include "obs/json.hh"
#include "sweep/config_codec.hh"
#include "sweep/result_store.hh"

namespace logtm::sweep {

unsigned
jobsFromEnv(unsigned dflt)
{
    const char *env = std::getenv("LOGTM_JOBS");
    if (!env || !*env)
        return dflt;
    const unsigned long v = std::strtoul(env, nullptr, 10);
    return v > 0 ? static_cast<unsigned>(v) : dflt;
}

std::string
cacheDirFromEnv(const std::string &dflt)
{
    const char *env = std::getenv("LOGTM_CACHE_DIR");
    return env && *env ? std::string(env) : dflt;
}

namespace {

/**
 * Keep concurrent (and serial re-)runs from overwriting each other's
 * observability snapshots: when two or more configs aim obs output at
 * the same directory, each gets a run_<k> subdirectory — k is the
 * config's order of appearance in the input list, so the layout is
 * identical at any worker count and whether or not results come from
 * the cache — and the shared directory gets a manifest.json mapping
 * each run_<k> back to its config. A directory targeted by a single
 * config keeps the flat single-run layout.
 */
void
assignObsRunDirs(std::vector<ExperimentConfig> &cfgs)
{
    std::map<std::string, std::vector<size_t>> byDir;
    for (size_t i = 0; i < cfgs.size(); ++i) {
        if (cfgs[i].obs.enabled())
            byDir[cfgs[i].obs.outDir].push_back(i);
    }
    for (const auto &[dir, indices] : byDir) {
        if (indices.size() < 2)
            continue;
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        std::ofstream mf(dir + "/manifest.json");
        JsonWriter w(mf);
        w.beginObject();
        w.field("schema", "logtm-obs-manifest-v1");
        w.key("runs").beginArray();
        for (size_t k = 0; k < indices.size(); ++k) {
            ExperimentConfig &cfg = cfgs[indices[k]];
            w.beginObject();
            w.field("index", static_cast<uint64_t>(k));
            w.field("dir", "run_" + std::to_string(k));
            w.field("hash", configHashHex(cfg));
            w.field("bench", toString(cfg.bench));
            w.field("variant", cfg.wl.useTm ? cfg.sys.signature.name()
                                            : std::string("Lock"));
            w.field("threads", uint64_t{cfg.wl.numThreads});
            w.field("seed", cfg.wl.seed);
            w.endObject();
            cfg.obs.outDir = dir + "/run_" + std::to_string(k);
        }
        w.endArray();
        w.endObject();
        mf << '\n';
    }
}

} // namespace

std::vector<RunOutcome>
runExperiments(std::vector<ExperimentConfig> cfgs, const RunOptions &opt)
{
    std::vector<RunOutcome> outcomes(cfgs.size());

    const unsigned workers = effectiveWorkers(opt.jobs);
    assignObsRunDirs(cfgs);
    std::unique_ptr<ResultStore> store;
    if (!opt.cacheDir.empty())
        store = std::make_unique<ResultStore>(opt.cacheDir);

    // Satisfy cache hits up front (cheap, serial), then schedule only
    // the misses.
    std::vector<size_t> pending;
    for (size_t i = 0; i < cfgs.size(); ++i) {
        if (store) {
            if (auto hit = store->lookup(cfgs[i])) {
                outcomes[i].result = std::move(*hit);
                outcomes[i].ok = true;
                outcomes[i].fromCache = true;
                continue;
            }
        }
        pending.push_back(i);
    }

    std::vector<JobFn> jobFns;
    jobFns.reserve(pending.size());
    for (const size_t index : pending) {
        jobFns.push_back([&, index](const JobContext &ctx) {
            ExperimentConfig cfg = cfgs[index];
            if (ctx.cancelled())
                throw JobTimeout();
            cfg.cancel = [&ctx]() { return ctx.cancelled(); };
            const ExperimentResult res = runExperiment(cfg);
            // Publish only through the attempt's gate: a fired
            // deadline means the run loop exited early with truncated
            // stats (report the timeout, don't cache it), and an
            // attempt the scheduler already abandoned must never
            // overwrite a later retry's outcome or cache entry.
            if (!ctx.claimPublish())
                throw JobTimeout();
            outcomes[index].result = res;
            if (store)
                store->store(cfgs[index], res);
        });
    }

    SchedulerConfig sched;
    sched.workers = workers;
    sched.timeoutMs = opt.timeoutMs;
    sched.maxAttempts = opt.maxAttempts;
    sched.progress = opt.progress;
    sched.progressLabel = opt.label;
    const std::vector<JobOutcome> jobOutcomes =
        JobScheduler(sched).run(jobFns, cfgs.size() - pending.size());

    for (size_t j = 0; j < pending.size(); ++j) {
        RunOutcome &out = outcomes[pending[j]];
        out.ok = jobOutcomes[j].ok;
        out.attempts = jobOutcomes[j].attempts;
        out.error = jobOutcomes[j].error;
    }
    return outcomes;
}

} // namespace logtm::sweep
