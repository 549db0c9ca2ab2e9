/**
 * @file
 * The observability event bus: publishers (engine, caches, OS) hand
 * typed Events to whatever sinks are attached. With no sink attached
 * the bus is effectively free — every publish site is guarded by the
 * inline enabled() test via the logtm_obs_emit macro, so event
 * construction is never even evaluated in normal runs.
 */

#ifndef LOGTM_OBS_EVENT_BUS_HH
#define LOGTM_OBS_EVENT_BUS_HH

#include <algorithm>
#include <vector>

#include "obs/event.hh"

namespace logtm {

/** Consumer interface; implementations must not detach re-entrantly
 *  from inside onEvent(). */
class EventSink
{
  public:
    virtual ~EventSink() = default;
    virtual void onEvent(const ObsEvent &ev) = 0;
};

class EventBus
{
  public:
    /** True when at least one sink is attached (publish guard). */
    bool enabled() const { return !sinks_.empty(); }

    void attach(EventSink *sink)
    {
        if (std::find(sinks_.begin(), sinks_.end(), sink) ==
            sinks_.end())
            sinks_.push_back(sink);
    }

    void detach(EventSink *sink)
    {
        sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink),
                     sinks_.end());
    }

    void
    publish(const ObsEvent &ev)
    {
        ++published_;
        for (EventSink *s : sinks_)
            s->onEvent(ev);
    }

    /** Events delivered since construction (0 with no sink ever
     *  attached: publish sites are guarded by enabled()). */
    uint64_t published() const { return published_; }

  private:
    std::vector<EventSink *> sinks_;
    uint64_t published_ = 0;
};

} // namespace logtm

/** Publish an event only when a sink is attached; the event
 *  expression is not evaluated otherwise. */
#define logtm_obs_emit(bus, ...)                                         \
    do {                                                                  \
        if ((bus).enabled())                                              \
            (bus).publish(__VA_ARGS__);                                   \
    } while (0)

#endif // LOGTM_OBS_EVENT_BUS_HH
