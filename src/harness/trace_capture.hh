/**
 * @file
 * Shared golden-run event capture.
 *
 * The golden-trace determinism pin (tests/test_perf_equivalence.cc)
 * and the triage divergence bisector (`logtm_triage --bisect`) must
 * re-run the *same* fixed-seed reference simulation; this is the one
 * definition of that run. Changing it invalidates
 * baselines/golden_trace.json — regenerate with LOGTM_UPDATE_GOLDEN=1.
 */

#ifndef LOGTM_HARNESS_TRACE_CAPTURE_HH
#define LOGTM_HARNESS_TRACE_CAPTURE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "obs/event.hh"

namespace logtm {

/** Number of leading events the committed golden baseline pins. */
constexpr size_t goldenTracePinnedEvents = 256;

/** Knobs for capture runs. The defaults reproduce the golden run: a
 *  fixed-seed BerkeleyDB workload on the default table2 system. */
struct TraceCaptureOptions
{
    uint64_t seed = 1;
    uint64_t totalUnits = 64;
    /** Signature size for the run (bit-select). */
    uint32_t sigBits = 2048;
    /** TM engine for the run; the default reproduces the golden run
     *  byte-for-byte. Non-default engines pin their own baselines
     *  (baselines/golden_trace_<engine>.json). */
    TmEngineKind engine = TmEngineKind::LogTmSe;
};

/** Run the capture configuration and return its full event stream in
 *  arrival order. */
std::vector<ObsEvent> captureRunEvents(const TraceCaptureOptions &opt);

/** The golden reference run (default options). */
std::vector<ObsEvent> captureGoldenRunEvents();

} // namespace logtm

#endif // LOGTM_HARNESS_TRACE_CAPTURE_HH
