/**
 * @file
 * `logtm_sweep`: the campaign CLI. Expands a built-in or JSON sweep
 * spec into a job grid, fans it across host cores with the result
 * cache enabled (so a killed campaign resumes where it stopped),
 * prints the median-over-seeds table, and writes the
 * BENCH_<campaign>.json artifact.
 *
 *   logtm_sweep --campaign table2 --jobs 4
 *   logtm_sweep --campaign fig4_speedup --seeds 5 --out fig4.json
 *   logtm_sweep --spec my_campaign.json --jobs 0   # 0 = all cores
 *
 * See docs/SWEEPS.md for the spec format and cache semantics.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "sweep/campaign.hh"

using namespace logtm;
using namespace logtm::sweep;

namespace {

void
usage(std::FILE *to)
{
    std::fprintf(to,
        "usage: logtm_sweep (--campaign NAME | --spec FILE) [options]\n"
        "\n"
        "options:\n"
        "  --campaign NAME     built-in campaign (see --list)\n"
        "  --spec FILE         JSON sweep spec (docs/SWEEPS.md)\n"
        "  --jobs N            host worker threads (0 = all cores;\n"
        "                      default $LOGTM_JOBS or 1)\n"
        "  --seeds K           override the seed-axis count\n"
        "  --quick             smoke preset: one seed, 1/8 units\n"
        "                      (explicit --seeds/--units-denom win)\n"
        "  --seed-base B       override the seed-axis base\n"
        "  --units-denom D     override the unit scale denominator\n"
        "  --out FILE          report path (default BENCH_<name>.json)\n"
        "  --cache-dir DIR     result cache (default $LOGTM_CACHE_DIR\n"
        "                      or .logtm-sweep-cache)\n"
        "  --no-cache          disable the result cache\n"
        "  --timeout-ms M      per-job attempt deadline (default none)\n"
        "  --retries R         extra attempts after a failure "
        "(default 1)\n"
        "  --csv               emit the summary table as CSV\n"
        "  --no-progress       suppress the progress/ETA line\n"
        "  --list              list built-in campaigns and exit\n");
}

bool
argValue(int argc, char **argv, int *i, const char *flag,
         std::string *out)
{
    const std::string arg(argv[*i]);
    const std::string name(flag);
    if (arg == name) {
        if (*i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", flag);
            std::exit(2);
        }
        *out = argv[++*i];
        return true;
    }
    if (arg.rfind(name + "=", 0) == 0) {
        *out = arg.substr(name.size() + 1);
        return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string campaign, specFile, outFile, value;
    RunOptions run;
    run.jobs = jobsFromEnv(1);
    run.cacheDir = cacheDirFromEnv(".logtm-sweep-cache");
    run.progress = true;
    bool csv = false;
    bool quick = false;
    uint64_t seedBase = 0;
    uint32_t seedCount = 0;
    uint64_t unitsDenom = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (argValue(argc, argv, &i, "--campaign", &campaign)) {
        } else if (argValue(argc, argv, &i, "--spec", &specFile)) {
        } else if (argValue(argc, argv, &i, "--out", &outFile)) {
        } else if (argValue(argc, argv, &i, "--cache-dir",
                            &run.cacheDir)) {
        } else if (argValue(argc, argv, &i, "--jobs", &value)) {
            run.jobs = static_cast<unsigned>(
                std::strtoul(value.c_str(), nullptr, 10));
        } else if (argValue(argc, argv, &i, "--seeds", &value)) {
            seedCount = static_cast<uint32_t>(
                std::strtoul(value.c_str(), nullptr, 10));
        } else if (argValue(argc, argv, &i, "--seed-base", &value)) {
            seedBase = std::strtoull(value.c_str(), nullptr, 10);
        } else if (argValue(argc, argv, &i, "--units-denom",
                            &value)) {
            unitsDenom = std::strtoull(value.c_str(), nullptr, 10);
        } else if (argValue(argc, argv, &i, "--timeout-ms", &value)) {
            run.timeoutMs = std::strtoull(value.c_str(), nullptr, 10);
        } else if (argValue(argc, argv, &i, "--retries", &value)) {
            run.maxAttempts = 1u + static_cast<unsigned>(
                std::strtoul(value.c_str(), nullptr, 10));
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--no-cache") {
            run.cacheDir.clear();
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--no-progress") {
            run.progress = false;
        } else if (arg == "--list") {
            for (const std::string &name : SweepSpec::builtinNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
            usage(stderr);
            return 2;
        }
    }

    if (campaign.empty() == specFile.empty()) {
        std::fprintf(stderr,
                     "exactly one of --campaign / --spec required\n");
        usage(stderr);
        return 2;
    }

    SweepSpec spec;
    std::string err;
    if (!campaign.empty()) {
        if (!SweepSpec::builtin(campaign, &spec)) {
            std::fprintf(stderr,
                         "unknown campaign '%s' (try --list)\n",
                         campaign.c_str());
            return 2;
        }
    } else if (!SweepSpec::fromJsonFile(specFile, &spec, &err)) {
        std::fprintf(stderr, "bad spec %s: %s\n", specFile.c_str(),
                     err.c_str());
        return 2;
    }
    if (quick) {
        // CI smoke preset: enough simulation to exercise every code
        // path and produce a renderable report, small enough to finish
        // in seconds. Explicit flags below still override.
        spec.seeds.count = 1;
        spec.unitScaleDenom *= 8;
    }
    if (seedCount)
        spec.seeds.count = seedCount;
    if (seedBase)
        spec.seeds.base = seedBase;
    if (unitsDenom)
        spec.unitScaleDenom = unitsDenom;
    if (outFile.empty())
        outFile = "BENCH_" + spec.name + ".json";

    const CampaignResult cr = runCampaign(spec, run);

    Table table = campaignTable(cr);
    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    if (!writeCampaignFile(cr, outFile, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 1;
    }

    const size_t failed = cr.failedCount();
    std::fprintf(stderr,
                 "%s: %zu jobs (%zu cached, %zu failed) -> %s\n",
                 spec.name.c_str(), cr.jobs.size(), cr.cachedCount(),
                 failed, outFile.c_str());
    if (failed) {
        for (size_t i = 0; i < cr.jobs.size(); ++i) {
            if (!cr.outcomes[i].ok) {
                std::fprintf(stderr, "  failed: %s %s seed=%llu: %s\n",
                             toString(cr.jobs[i].cfg.bench).c_str(),
                             cr.jobs[i].variant.c_str(),
                             static_cast<unsigned long long>(
                                 cr.jobs[i].seed),
                             cr.outcomes[i].error.c_str());
            }
        }
        return 1;
    }
    return 0;
}
