#include "sim/simulator.hh"

#include "common/log.hh"

namespace logtm {

Cycle
Simulator::runUntil(const std::function<bool()> &done, Cycle watchdog)
{
    const Cycle start = queue_.now();
    while (!done()) {
        if (!queue_.step()) {
            // Queue drained without satisfying the predicate: the
            // caller decides whether that is an error.
            break;
        }
        if (queue_.now() - start > watchdog)
            logtm_panic("simulation watchdog expired (livelock?)");
    }
    return queue_.now() - start;
}

Cycle
Simulator::runToCompletion(Cycle watchdog)
{
    const Cycle start = queue_.now();
    while (queue_.step()) {
        if (queue_.now() - start > watchdog)
            logtm_panic("simulation watchdog expired (livelock?)");
    }
    return queue_.now() - start;
}

} // namespace logtm
