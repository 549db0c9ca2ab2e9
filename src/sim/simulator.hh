/**
 * @file
 * The Simulator bundles the event queue, stats registry and the
 * run-wide RNG, and provides run control with a watchdog.
 */

#ifndef LOGTM_SIM_SIMULATOR_HH
#define LOGTM_SIM_SIMULATOR_HH

#include <functional>

#include "common/rng.hh"
#include "common/stats.hh"
#include "obs/event_bus.hh"
#include "sim/event_queue.hh"

namespace logtm {

class Simulator
{
  public:
    explicit Simulator(uint64_t seed = 1) : rng_(seed) {}

    EventQueue &queue() { return queue_; }
    StatsRegistry &stats() { return stats_; }
    /** Observability event bus; free when no sink is attached. */
    EventBus &events() { return events_; }
    /** The run-wide RNG. */
    Rng &rng() { return rng_; }
    Cycle now() const { return queue_.now(); }

    /** Events executed so far. */
    uint64_t eventsExecuted() const { return queue_.executed(); }

    /**
     * Run until @p done returns true or the event queue drains.
     * @param done      completion predicate, checked after each event
     * @param watchdog  abort the process if simulated time exceeds this
     *                  many cycles (guards against livelock bugs)
     * @return simulated cycles elapsed
     */
    Cycle runUntil(const std::function<bool()> &done,
                   Cycle watchdog = 2'000'000'000ull);

    /** Run until the event queue drains. @return cycles elapsed. */
    Cycle runToCompletion(Cycle watchdog = 2'000'000'000ull);

  private:
    EventQueue queue_;
    StatsRegistry stats_;
    EventBus events_;
    Rng rng_;
};

} // namespace logtm

#endif // LOGTM_SIM_SIMULATOR_HH
