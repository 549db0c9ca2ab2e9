#include "sim/event_queue.hh"

#include <bit>

#include "common/log.hh"

namespace logtm {

namespace {

constexpr size_t slabNodes = 256;

} // namespace

EventQueue::EventQueue()
{
    buckets_.resize(calendarHorizon);
    occupied_.resize(calendarHorizon / 64, 0);
}

EventQueue::~EventQueue() = default;

// --------------------------------------------------------------------
// Slab pool
// --------------------------------------------------------------------

EventQueue::Node *
EventQueue::allocNode()
{
    if (!freeList_) {
        slabs_.push_back(std::make_unique<Node[]>(slabNodes));
        Node *slab = slabs_.back().get();
        for (size_t i = 0; i < slabNodes; ++i) {
            slab[i].next = freeList_;
            freeList_ = &slab[i];
        }
    }
    Node *n = freeList_;
    freeList_ = n->next;
    n->next = nullptr;
    return n;
}

void
EventQueue::freeNode(Node *n)
{
    n->action.reset();
    n->next = freeList_;
    freeList_ = n;
}

// --------------------------------------------------------------------
// Scheduling
// --------------------------------------------------------------------

void
EventQueue::insertNear(Node *n)
{
    const uint64_t idx = n->when & (calendarHorizon - 1);
    Bucket &b = buckets_[idx];
    const auto p = static_cast<size_t>(n->priority);
    if (b.tail[p])
        b.tail[p]->next = n;
    else
        b.head[p] = n;
    b.tail[p] = n;
    occupied_[idx >> 6] |= 1ull << (idx & 63);
    ++nearCount_;
}

void
EventQueue::linkNode(Node *n)
{
    // Re-anchor an empty ring at the present so the whole horizon is
    // usable; with events in flight the anchor must stay put (each
    // bucket may hold only one tick).
    if (nearCount_ == 0)
        windowStart_ = now_;
    // Horizon-seam contract (audited; locked down by the boundary
    // sweep in tests/test_event_queue.cc): a tick of exactly
    // windowStart_ + calendarHorizon would alias bucket
    // windowStart_'s slot, so the near test is strict (< horizon)
    // here and in migrateFromFar(), and popEarliest() prefers the
    // heap on earlier-or-tied keys. An event at exactly the seam
    // therefore always takes the heap path — there is no tick at
    // which an event can be filed near and popped late, or vice
    // versa.
    if (n->when >= windowStart_ &&
        n->when - windowStart_ < calendarHorizon)
        insertNear(n);
    else
        far_.push(n);
}

bool
EventQueue::cancel(EventId id)
{
    logtm_assert(id < nextSeq_, "cancel of an unknown event id");
    return cancelled_.insert(id).second;
}

bool
EventQueue::consumeCancelled(uint64_t seq)
{
    if (cancelled_.empty())
        return false;
    return cancelled_.erase(seq) != 0;
}

// --------------------------------------------------------------------
// Popping
// --------------------------------------------------------------------

void
EventQueue::migrateFromFar()
{
    logtm_assert(nearCount_ == 0, "migration into a non-empty ring");
    windowStart_ = far_.top()->when;
    const Cycle bound = windowStart_ + calendarHorizon;
    // The heap pops in (when, priority, seq) order, so per-(tick,
    // priority) list appends preserve seq order.
    while (!far_.empty() && far_.top()->when < bound) {
        Node *n = far_.top();
        far_.pop();
        insertNear(n);
    }
}

Cycle
EventQueue::nextNearTick()
{
    if (nearCount_ == 0) {
        if (far_.empty())
            return ~0ull;
        migrateFromFar();
    }
    // First occupied bucket in circular order from the window's live
    // edge; ticks map injectively onto buckets within the horizon, so
    // that bucket holds the earliest pending tick.
    const Cycle from = now_ > windowStart_ ? now_ : windowStart_;
    const uint64_t start = from & (calendarHorizon - 1);
    const size_t start_word = start >> 6;
    const size_t words = occupied_.size();
    size_t word_idx = start_word;
    uint64_t word = occupied_[word_idx] & (~0ull << (start & 63));
    for (size_t scanned = 0; scanned <= words; ++scanned) {
        if (word) {
            const uint64_t bit =
                (word_idx << 6) + std::countr_zero(word);
            const uint64_t dist = (bit - start) & (calendarHorizon - 1);
            return from + dist;
        }
        word_idx = (word_idx + 1) % words;
        word = occupied_[word_idx];
        if (word_idx == start_word)  // wrapped: only the tail bits left
            word &= ~(~0ull << (start & 63));
    }
    logtm_panic("near count non-zero but no occupied bucket");
}

EventQueue::Node *
EventQueue::popEarliest()
{
    const Cycle tick = nextNearTick();
    logtm_assert(tick != ~0ull, "pop from an empty queue");
    const uint64_t idx = tick & (calendarHorizon - 1);
    Bucket &b = buckets_[idx];
    for (size_t p = 0; p < numEventPriorities; ++p) {
        Node *n = b.head[p];
        if (!n)
            continue;
        // The overflow heap can hold an earlier-ordered event when an
        // out-of-window schedule landed behind the ring anchor.
        if (!far_.empty()) {
            const Node *f = far_.top();
            if (f->when < tick ||
                (f->when == tick &&
                 (f->priority < n->priority ||
                  (f->priority == n->priority && f->seq < n->seq)))) {
                Node *fn = far_.top();
                far_.pop();
                return fn;
            }
        }
        logtm_assert(n->when == tick, "bucket holds a foreign tick");
        b.head[p] = n->next;
        if (!b.head[p])
            b.tail[p] = nullptr;
        --nearCount_;
        if (!b.head[0] && !b.head[1] && !b.head[2])
            occupied_[idx >> 6] &= ~(1ull << (idx & 63));
        return n;
    }
    logtm_panic("occupied bucket with no events");
}

// --------------------------------------------------------------------
// Execution
// --------------------------------------------------------------------

bool
EventQueue::stepBounded(Cycle deadline)
{
    while (live_ > 0) {
        Node *n = popEarliest();
        if (consumeCancelled(n->seq)) {
            --live_;
            freeNode(n);
            continue;
        }
        if (n->when > deadline) {
            // Push the peeked node back. insertNear appends, which
            // would misorder it behind same-(tick, priority) peers;
            // the overflow heap is order-exact and popEarliest
            // prefers it on earlier-or-tied keys, so park it there
            // (at most once per run() call).
            far_.push(n);
            return false;
        }
        --live_;
        logtm_assert(n->when >= now_, "event queue time went backwards");
        now_ = n->when;
        ++executed_;
        // The node is already unlinked from every structure, so the
        // handler may freely schedule new events (which draw other
        // nodes from the pool); recycle it only after the closure
        // finishes running, since the closure lives inside it.
        n->action();
        freeNode(n);
        return true;
    }
    return false;
}

bool
EventQueue::step()
{
    return stepBounded(~0ull);
}

Cycle
EventQueue::nextEventTick()
{
    if (live_ == 0)
        return kNeverTick;
    // nextNearTick() migrates from the heap when the ring is empty,
    // but the heap can still hold an earlier tick (behind-anchor
    // schedules and deadline-parked nodes), so take the min of both.
    const Cycle near = nextNearTick();
    if (far_.empty())
        return near;
    const Cycle far = far_.top()->when;
    return far < near ? far : near;
}

uint64_t
EventQueue::run(Cycle max_cycles)
{
    const Cycle deadline = (max_cycles == ~0ull) ? ~0ull : now_ + max_cycles;
    uint64_t count = 0;
    while (stepBounded(deadline))
        ++count;
    return count;
}

void
EventQueue::clear()
{
    while (nearCount_ > 0 || !far_.empty()) {
        Node *n = popEarliest();
        freeNode(n);
    }
    windowStart_ = 0;
    live_ = 0;
    cancelled_.clear();
    now_ = 0;
    nextSeq_ = 0;
    executed_ = 0;
}

} // namespace logtm
