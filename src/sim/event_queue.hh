/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are ordered by (tick, priority, sequence number), where the
 * sequence number breaks ties in scheduling order, making simulation
 * results bit-for-bit reproducible.
 *
 * The implementation is a **calendar queue**: a slab-allocated event
 * pool plus a ring of per-tick buckets covering the near future (the
 * common case: memory latencies, NACK retries, commit latencies are
 * all within a few thousand cycles). Events beyond the bucket horizon
 * overflow into a fallback binary heap and migrate into the ring as
 * time advances. Schedule and pop are O(1) for near events and event
 * nodes are recycled, so the hot loop performs no per-event heap
 * allocation or heap sift. The ordering contract is locked down by
 * the randomized property suite in tests/test_event_queue.cc, which
 * checks execution order against a stable-sort reference
 * (docs/PERFORMANCE.md).
 */

#ifndef LOGTM_SIM_EVENT_QUEUE_HH
#define LOGTM_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace logtm {

/**
 * Type-erased nullary callable with generous inline storage, used for
 * pooled calendar-queue nodes. Unlike std::function (16-byte small
 * buffer on libstdc++), the 88-byte buffer holds every callback the
 * protocol schedules -- including a by-value Msg capture -- so
 * steady-state scheduling performs no heap allocation at all.
 * Callables that still don't fit fall back to the heap.
 *
 * Intentionally neither copyable nor movable: closures are
 * constructed in place inside a pooled node and destroyed when the
 * node is recycled, so relocation is never needed (and never safe to
 * assume for arbitrary captures).
 */
class EventAction
{
  public:
    EventAction() = default;
    ~EventAction() { reset(); }
    EventAction(const EventAction &) = delete;
    EventAction &operator=(const EventAction &) = delete;

    /** Construct @p fn in place, replacing any current callable. */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        reset();
        if constexpr (sizeof(Fn) <= inlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            target_ = new (buf_) Fn(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            destroy_ = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
        } else {
            target_ = new Fn(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            destroy_ = [](void *p) { delete static_cast<Fn *>(p); };
        }
    }

    void operator()() { invoke_(target_); }
    explicit operator bool() const { return invoke_ != nullptr; }

    /** Destroy the held callable (no-op when empty). */
    void
    reset()
    {
        if (destroy_)
            destroy_(target_);
        target_ = nullptr;
        invoke_ = nullptr;
        destroy_ = nullptr;
    }

  private:
    static constexpr size_t inlineBytes = 88;

    alignas(std::max_align_t) unsigned char buf_[inlineBytes];
    void *target_ = nullptr;
    void (*invoke_)(void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
};

/** Relative ordering of events scheduled for the same cycle. */
enum class EventPriority : uint8_t {
    Protocol = 0,  ///< coherence message delivery / controller work
    Default = 1,
    Cpu = 2,       ///< thread-context wakeups run after protocol work
};

constexpr uint32_t numEventPriorities = 3;

/**
 * Handle to a scheduled event (its unique sequence number). Valid for
 * cancel()/reschedule() until the event fires or the queue is
 * cleared.
 */
using EventId = uint64_t;

/** Event queue keyed on (when, priority, seq). */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Cycle now() const { return now_; }

    /**
     * Schedule @p action to run at absolute cycle @p when. Scheduling
     * in the past (@p when < now()) is a hard error: it would
     * silently corrupt the bucket ring's tick->bucket map, so it
     * panics instead.
     *
     * Templated on the callable so closures are constructed directly
     * inside the pooled node (no intermediate std::function, no heap
     * allocation for captures up to EventAction's inline buffer).
     *
     * @return a handle usable with cancel()/reschedule().
     */
    template <typename F>
    EventId
    schedule(Cycle when, F &&action,
             EventPriority prio = EventPriority::Default)
    {
        logtm_assert(when >= now_,
                     "cannot schedule an event in the past");
        const EventId seq = nextSeq_++;
        ++live_;
        Node *n = allocNode();
        n->when = when;
        n->seq = seq;
        n->priority = prio;
        n->action.emplace(std::forward<F>(action));
        linkNode(n);
        return seq;
    }

    /** Schedule @p action @p delta cycles from now. */
    template <typename F>
    EventId
    scheduleIn(Cycle delta, F &&action,
               EventPriority prio = EventPriority::Default)
    {
        return schedule(now() + delta, std::forward<F>(action), prio);
    }

    /**
     * Cancel a pending event. @return true when the event was still
     * pending. Must not be called for an event that already fired
     * (the handle is dead at that point).
     */
    bool cancel(EventId id);

    /**
     * Cancel @p id and schedule @p action in its place at @p when.
     * @return the replacement event's handle.
     */
    template <typename F>
    EventId
    reschedule(EventId id, Cycle when, F &&action,
               EventPriority prio = EventPriority::Default)
    {
        cancel(id);
        return schedule(when, std::forward<F>(action), prio);
    }

    /** True when no runnable events remain. */
    bool empty() const { return pending() == 0; }

    /** Number of pending (non-cancelled) events. */
    size_t pending() const { return live_ - cancelled_.size(); }

    /**
     * Execute events in order until the queue drains or @p max_cycles
     * pass. @return number of events executed.
     */
    uint64_t run(Cycle max_cycles = ~0ull);

    /** Execute a single event. @return false if the queue was empty. */
    bool step();

    /** Drop all pending events and reset time to zero. */
    void clear();

    /** Total events executed since construction / clear() (throughput
     *  accounting for bench_perf; cancelled events do not count). */
    uint64_t executed() const { return executed_; }

    /** Bucket-ring span in cycles; events further out overflow into
     *  the fallback heap (exposed for boundary tests). */
    static constexpr uint32_t calendarHorizonLog2 = 12;
    static constexpr uint32_t calendarHorizon = 1u << calendarHorizonLog2;

    /** nextEventTick() result for a drained queue. */
    static constexpr Cycle kNeverTick = ~Cycle(0);

    /** Earliest pending tick (cancelled tombstones included — they
     *  are purged on pop), or kNeverTick when drained. */
    Cycle nextEventTick();

    /** Execute the earliest event if its tick is <= @p deadline.
     *  @return true when an event ran. Purges cancelled events.
     *  run(max_cycles) steps with this; a deadline-parked node goes
     *  through the order-exact overflow heap, so a deadline never
     *  reorders events. */
    bool stepBounded(Cycle deadline);

  private:
    /** True when a pending event was cancelled; consumes the mark. */
    bool consumeCancelled(uint64_t seq);

    /** Pooled event node; recycled through freeList_. */
    struct Node
    {
        Cycle when = 0;
        uint64_t seq = 0;
        EventPriority priority = EventPriority::Default;
        Node *next = nullptr;
        EventAction action;
    };

    /** One tick's events, segregated by priority, in seq order. */
    struct Bucket
    {
        std::array<Node *, numEventPriorities> head{};
        std::array<Node *, numEventPriorities> tail{};
    };

    struct NodeLater
    {
        bool
        operator()(const Node *a, const Node *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            if (a->priority != b->priority)
                return a->priority > b->priority;
            return a->seq > b->seq;
        }
    };

    /** File a fully formed node under near ring or overflow heap. */
    void linkNode(Node *n);

    Node *allocNode();
    void freeNode(Node *n);
    void insertNear(Node *n);
    /** Pull overflow-heap events into the ring once it drains. */
    void migrateFromFar();
    /** Earliest near tick, or ~0ull when empty. Re-anchors the ring
     *  from the overflow heap as a side effect. */
    Cycle nextNearTick();
    /** Pop the globally earliest node (near vs far). Queue must be
     *  non-empty in the node sense (live_ > 0). */
    Node *popEarliest();

    // ----- state ------------------------------------------------------

    Cycle now_ = 0;
    uint64_t nextSeq_ = 0;
    uint64_t executed_ = 0;
    /** Nodes/events held (including cancelled-but-unpopped ones). */
    size_t live_ = 0;
    /** Tombstones for cancelled events, keyed by seq; popped events
     *  check-and-erase. Empty in steady state. */
    std::unordered_set<uint64_t> cancelled_;

    std::vector<Bucket> buckets_;            ///< calendarHorizon entries
    std::vector<uint64_t> occupied_;         ///< bucket-occupancy bitmap
    /** Ring anchor: near events all lie in
     *  [max(now_, windowStart_), windowStart_ + calendarHorizon). */
    Cycle windowStart_ = 0;
    size_t nearCount_ = 0;
    std::priority_queue<Node *, std::vector<Node *>, NodeLater> far_;
    std::vector<std::unique_ptr<Node[]>> slabs_;
    Node *freeList_ = nullptr;
};

} // namespace logtm

#endif // LOGTM_SIM_EVENT_QUEUE_HH
