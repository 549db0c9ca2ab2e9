/**
 * @file
 * Lock-primitive tests (mutual exclusion over the simulated memory
 * system) and workload integration tests: every paper benchmark runs
 * to completion in both lock and TM variants with sane statistics.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "sync/spinlock.hh"
#include "workload/workload.hh"

namespace logtm {
namespace {

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.threadsPerCore = 2;
    cfg.l2Banks = 4;
    cfg.meshCols = 2;
    cfg.meshRows = 2;
    return cfg;
}

// ---------------------------------------------------------------------
// Locks.
// ---------------------------------------------------------------------

template <typename LockT>
void
runMutualExclusionTest(int num_threads, int iterations)
{
    TmSystem sys(smallConfig());
    const Asid asid = sys.os().createProcess();
    TmEngine &eng = sys.engine();
    const VirtAddr lock_base = 0x1000;
    const VirtAddr counter = 0x8000;
    sys.mem().data().store(sys.os().translate(asid, counter), 0);
    LockT lock(eng, lock_base);

    int in_section = 0;
    int max_in_section = 0;
    int completed = 0;

    // Each "thread" loops: acquire -> read counter -> think -> write
    // counter+1 -> release; a non-atomic increment made safe only by
    // the lock.
    std::function<void(ThreadId, int)> iterate =
        [&](ThreadId t, int remaining) {
            if (remaining == 0) {
                ++completed;
                return;
            }
            lock.acquire(t, [&, t, remaining]() {
                ++in_section;
                max_in_section = std::max(max_in_section, in_section);
                eng.load(t, counter, [&, t, remaining](OpStatus,
                                                       uint64_t v) {
                    sys.sim().queue().scheduleIn(7, [&, t, remaining,
                                                    v]() {
                        eng.store(t, counter, v + 1, [&, t, remaining](
                                                         OpStatus) {
                            --in_section;
                            lock.release(t, [&, t, remaining]() {
                                iterate(t, remaining - 1);
                            });
                        });
                    });
                });
            });
        };

    for (int i = 0; i < num_threads; ++i) {
        const ThreadId t = sys.os().spawnThread(asid);
        iterate(t, iterations);
    }
    sys.sim().runUntil([&]() { return completed == num_threads; });

    EXPECT_EQ(max_in_section, 1) << "mutual exclusion violated";
    EXPECT_EQ(sys.mem().data().load(sys.os().translate(asid, counter)),
              static_cast<uint64_t>(num_threads) * iterations);
}

TEST(Spinlock, MutualExclusionAndNoLostUpdates)
{
    runMutualExclusionTest<Spinlock>(8, 20);
}

TEST(TicketLock, MutualExclusionAndNoLostUpdates)
{
    runMutualExclusionTest<TicketLock>(8, 20);
}

// ---------------------------------------------------------------------
// Workload integration, parameterized over benchmark x variant.
// ---------------------------------------------------------------------

struct WlParam
{
    WlParam(Benchmark b, bool tm) : bench(b), useTm(tm) {}

    Benchmark bench;
    bool useTm;
    // gtest prints the param's raw bytes into the test name; naming the
    // padding keeps it zero, so every build lists the same name.
    uint8_t pad[3] = {};
};
static_assert(sizeof(WlParam) == 8, "WlParam must have no hidden padding");

std::string
wlName(const testing::TestParamInfo<WlParam> &info)
{
    return toString(info.param.bench) +
        (info.param.useTm ? "_TM" : "_Lock");
}

class WorkloadRun : public testing::TestWithParam<WlParam>
{
};

TEST_P(WorkloadRun, CompletesWithSaneStats)
{
    SystemConfig cfg;  // full paper system (16 cores, 32 contexts)
    TmSystem sys(cfg);
    WorkloadParams p;
    p.numThreads = 32;
    p.useTm = GetParam().useTm;
    p.totalUnits = 160;
    auto wl = makeWorkload(GetParam().bench, sys, p);

    WorkloadResult res = wl->run();
    EXPECT_EQ(res.units, p.totalUnits);
    EXPECT_GT(res.cycles, 0u);

    const uint64_t commits = sys.stats().counterValue("tm.commits");
    if (p.useTm) {
        EXPECT_GE(commits, p.totalUnits);  // >= 1 transaction per unit
        // Every transactional unit committed exactly once per begin
        // minus aborts: begins = commits + aborts.
        EXPECT_EQ(sys.stats().counterValue("tm.beginsOuter"),
                  commits + sys.stats().counterValue("tm.aborts"));
    } else {
        EXPECT_EQ(commits, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadRun,
    testing::Values(WlParam{Benchmark::BerkeleyDB, true},
                    WlParam{Benchmark::BerkeleyDB, false},
                    WlParam{Benchmark::Cholesky, true},
                    WlParam{Benchmark::Cholesky, false},
                    WlParam{Benchmark::Radiosity, true},
                    WlParam{Benchmark::Radiosity, false},
                    WlParam{Benchmark::Raytrace, true},
                    WlParam{Benchmark::Raytrace, false},
                    WlParam{Benchmark::Mp3d, true},
                    WlParam{Benchmark::Mp3d, false},
                    WlParam{Benchmark::Microbench, true},
                    WlParam{Benchmark::Microbench, false}),
    wlName);

TEST(Workloads, FootprintsMatchPaperTable2Shape)
{
    // Run each benchmark with perfect signatures and check the
    // read/write-set sizes land near Table 2 (loose bands: the
    // generators are stochastic).
    struct Band
    {
        Benchmark b;
        double read_lo, read_hi, write_lo, write_hi, read_max_min;
    };
    const Band bands[] = {
        {Benchmark::BerkeleyDB, 5, 12, 4, 10, 20},
        {Benchmark::Cholesky, 3.5, 4.5, 1.5, 2.5, 4},
        {Benchmark::Radiosity, 1.5, 6, 1, 4, 20},
        {Benchmark::Raytrace, 2, 9, 1, 3, 250},
        {Benchmark::Mp3d, 1.5, 5, 1, 4, 10},
    };
    for (const Band &band : bands) {
        ExperimentConfig cfg;
        cfg.bench = band.b;
        cfg.wl.numThreads = 32;
        cfg.wl.totalUnits = std::min<uint64_t>(defaultUnits(band.b), 512);
        cfg.wl.useTm = true;
        ExperimentResult r = runExperiment(cfg);
        EXPECT_GE(r.readAvg, band.read_lo) << toString(band.b);
        EXPECT_LE(r.readAvg, band.read_hi) << toString(band.b);
        EXPECT_GE(r.writeAvg, band.write_lo) << toString(band.b);
        EXPECT_LE(r.writeAvg, band.write_hi) << toString(band.b);
        EXPECT_GE(r.readMax, band.read_max_min) << toString(band.b);
    }
}

TEST(Harness, SpeedupComputation)
{
    ExperimentResult tm, lock;
    tm.cycles = 500;
    lock.cycles = 1000;
    EXPECT_DOUBLE_EQ(speedupVs(tm, lock), 2.0);
}

TEST(Harness, FalsePositivePercent)
{
    ExperimentResult r;
    r.conflictsTrue = 30;
    r.conflictsFalse = 70;
    EXPECT_DOUBLE_EQ(r.falsePositivePct(), 70.0);
    ExperimentResult none;
    EXPECT_DOUBLE_EQ(none.falsePositivePct(), 0.0);
}

} // namespace
} // namespace logtm
