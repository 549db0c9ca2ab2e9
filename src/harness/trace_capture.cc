#include "harness/trace_capture.hh"

#include "harness/experiment.hh"
#include "obs/recording_sink.hh"
#include "os/tm_system.hh"

namespace logtm {

std::vector<ObsEvent>
captureRunEvents(const TraceCaptureOptions &opt)
{
    SystemConfig scfg;
    scfg.signature = sigBS(opt.sigBits);
    scfg.engine = opt.engine;
    TmSystem sys(scfg);
    RecordingSink ring;
    sys.sim().events().attach(&ring);

    WorkloadParams p;
    p.numThreads = scfg.numContexts();
    p.useTm = true;
    p.totalUnits = opt.totalUnits;
    p.seed = opt.seed;
    auto wl = makeWorkload(Benchmark::BerkeleyDB, sys, p);
    wl->run();
    sys.sim().events().detach(&ring);
    return ring.events();
}

std::vector<ObsEvent>
captureGoldenRunEvents()
{
    return captureRunEvents(TraceCaptureOptions{});
}

} // namespace logtm
