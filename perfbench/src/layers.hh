/**
 * @file
 * Per-layer microbenches for the traced benchmark run. Each one drives
 * a single simulator layer through its public functions only, on a
 * fixed input it states, and reports host nanoseconds per operation as
 * the median of several timed repetitions after one warm-up
 * repetition.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench {

struct LayerTiming
{
    std::string metric;   ///< per-layer metric name, e.g. "sim.ns_per_event"
    std::string input;    ///< the fixed input, in words
    double nsPerOp = 0;
    /** False when the microbench's own sanity check failed (for
     *  example an "L1 hit" that missed); the timing is then void. */
    bool ok = true;
};

/** Run every layer microbench, one span per microbench. */
std::vector<LayerTiming> runLayerMicrobenches(SpanRecorder &spans);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
