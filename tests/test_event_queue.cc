/**
 * @file
 * Unit tests for the deterministic event queue and simulator kernel,
 * including randomized differential properties that pin the
 * (tick, priority, sequence) ordering contract against a stable-sort
 * reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/simulator.hh"

namespace logtm {
namespace {

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&]() { order.push_back(3); });
    q.schedule(10, [&]() { order.push_back(1); });
    q.schedule(20, [&]() { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameCycleOrderedByPriorityThenSequence)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&]() { order.push_back(2); }, EventPriority::Cpu);
    q.schedule(5, [&]() { order.push_back(0); }, EventPriority::Protocol);
    q.schedule(5, [&]() { order.push_back(3); }, EventPriority::Cpu);
    q.schedule(5, [&]() { order.push_back(1); }, EventPriority::Protocol);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&]() {
        ++fired;
        q.scheduleIn(1, [&]() {
            ++fired;
            q.scheduleIn(1, [&]() { ++fired; });
        });
    });
    q.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.now(), 3u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&]() { ++fired; });
    q.schedule(2, [&]() { ++fired; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, RunBoundedByMaxCycles)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&]() { ++fired; });
    q.schedule(1000, [&]() { ++fired; });
    q.run(100);
    EXPECT_EQ(fired, 1);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ClearDropsEventsAndResetsTime)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&]() { ++fired; });
    q.clear();
    q.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(q.now(), 0u);
}

// --------------------------------------------------------------------
// Ordering-contract properties
// --------------------------------------------------------------------

/**
 * 1000 seeded random schedules/cancels/reschedules interleaved with
 * execution, checked against a sorted-vector reference model. The
 * model breaks (when, priority) ties by scheduling order via
 * std::stable_sort -- exactly the queue's sequence-number rule -- so
 * any divergence is an ordering bug in the calendar engine.
 */
TEST(EventQueueProperties, RandomizedAgainstStableSortReference)
{
    constexpr uint32_t horizon = EventQueue::calendarHorizon;
    for (uint64_t seed = 1; seed <= 1000; ++seed) {
        EventQueue q;
        struct Ref
        {
            Cycle when;
            uint8_t prio;
            uint64_t label;
        };
        std::vector<std::pair<EventId, Ref>> pending;
        std::vector<uint64_t> fired, expected;
        uint64_t lcg = seed * 0x9E3779B97F4A7C15ull + 1;
        auto rnd = [&lcg]() {
            lcg = lcg * 6364136223846793005ull +
                  1442695040888963407ull;
            return lcg >> 33;
        };
        uint64_t nextLabel = 0;

        auto scheduleOne = [&]() {
            const uint64_t r = rnd();
            Cycle delta;
            switch (r % 8) {
              case 0:  // same-tick pileups
                delta = r % 4;
                break;
              case 1:  // near/far window edge
                delta = horizon - 2 + (r % 5);
                break;
              case 2:  // deep overflow, crosses two wraps
                delta = 2 * horizon - 1 + (r % 3);
                break;
              default:
                delta = r % (3 * horizon);
            }
            const Cycle when = q.now() + delta;
            const auto prio = static_cast<EventPriority>(r % 3);
            const uint64_t label = nextLabel++;
            const EventId id = q.schedule(
                when, [&fired, label]() { fired.push_back(label); },
                prio);
            pending.push_back(
                {id, {when, static_cast<uint8_t>(prio), label}});
        };

        // Repeated stable sorts keep equal keys in schedule order
        // (equal elements are never permuted), matching seq order.
        auto popModel = [&]() {
            std::stable_sort(
                pending.begin(), pending.end(),
                [](const auto &a, const auto &b) {
                    if (a.second.when != b.second.when)
                        return a.second.when < b.second.when;
                    return a.second.prio < b.second.prio;
                });
            expected.push_back(pending.front().second.label);
            pending.erase(pending.begin());
        };

        for (int round = 0; round < 6; ++round) {
            const uint64_t ops = 1 + rnd() % 8;
            for (uint64_t i = 0; i < ops; ++i) {
                const uint64_t r = rnd() % 10;
                if (r < 7 || pending.empty()) {
                    scheduleOne();
                } else if (r < 9) {
                    const size_t victim = rnd() % pending.size();
                    EXPECT_TRUE(q.cancel(pending[victim].first));
                    pending.erase(pending.begin() + victim);
                } else {
                    const size_t victim = rnd() % pending.size();
                    const EventId old = pending[victim].first;
                    pending.erase(pending.begin() + victim);
                    const Cycle when = q.now() + rnd() % (2 * horizon);
                    const auto prio =
                        static_cast<EventPriority>(rnd() % 3);
                    const uint64_t label = nextLabel++;
                    const EventId id = q.reschedule(
                        old, when,
                        [&fired, label]() { fired.push_back(label); },
                        prio);
                    pending.push_back(
                        {id,
                         {when, static_cast<uint8_t>(prio), label}});
                }
            }
            const uint64_t steps = rnd() % 6;
            for (uint64_t i = 0; i < steps && !pending.empty(); ++i) {
                popModel();
                ASSERT_TRUE(q.step()) << "seed " << seed;
            }
        }
        while (!pending.empty()) {
            popModel();
            ASSERT_TRUE(q.step()) << "seed " << seed;
        }
        EXPECT_FALSE(q.step());
        EXPECT_EQ(q.pending(), 0u) << "seed " << seed;
        ASSERT_EQ(fired, expected) << "seed " << seed;
    }
}

/** Ticks that collide modulo the bucket-ring size must still execute
 *  in time order, not bucket order. */
TEST(EventQueueProperties, BucketWrapCollisionsExecuteInTimeOrder)
{
    constexpr uint32_t horizon = EventQueue::calendarHorizon;
    EventQueue q;
    std::vector<int> order;
    // All five map to the same ring bucket.
    q.schedule(4 * horizon + 7, [&]() { order.push_back(4); });
    q.schedule(2 * horizon + 7, [&]() { order.push_back(2); });
    q.schedule(7, [&]() { order.push_back(0); });
    q.schedule(3 * horizon + 7, [&]() { order.push_back(3); });
    q.schedule(horizon + 7, [&]() { order.push_back(1); });
    // Plus the window edges themselves.
    q.schedule(horizon - 1, [&]() { order.push_back(10); });
    q.schedule(horizon, [&]() { order.push_back(11); });
    q.schedule(horizon + 1, [&]() { order.push_back(12); });
    q.run();
    EXPECT_EQ(order,
              (std::vector<int>{0, 10, 11, 12, 1, 2, 3, 4}));
    EXPECT_EQ(q.now(), 4 * horizon + 7);
}

/** Same tick, mixed priorities, scheduled both before and during
 *  execution at that tick: priority then scheduling order wins. */
TEST(EventQueueProperties, SameTickPriorityTiesAcrossInsertion)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(100, [&]() {
        order.push_back(0);
        // Scheduled mid-tick: still sorts by priority at tick 100.
        q.schedule(100, [&]() { order.push_back(3); },
                   EventPriority::Cpu);
        q.schedule(100, [&]() { order.push_back(1); },
                   EventPriority::Protocol);
    }, EventPriority::Protocol);
    q.schedule(100, [&]() { order.push_back(2); },
               EventPriority::Default);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueProperties, ExecutedCountsFiredEventsOnly)
{
    EventQueue q;
    int fired = 0;
    const EventId a = q.schedule(1, [&]() { ++fired; });
    q.schedule(2, [&]() { ++fired; });
    q.schedule(3, [&]() { ++fired; });
    EXPECT_TRUE(q.cancel(a));
    EXPECT_EQ(q.pending(), 2u);
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.executed(), 2u);  // the cancelled event never counts
    q.clear();
    EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueueProperties, CancelledFarEventsDoNotResurface)
{
    constexpr uint32_t horizon = EventQueue::calendarHorizon;
    EventQueue q;
    std::vector<int> order;
    const EventId far = q.schedule(3 * horizon,
                                   [&]() { order.push_back(99); });
    q.schedule(5, [&]() { order.push_back(1); });
    q.schedule(2 * horizon, [&]() { order.push_back(2); });
    EXPECT_TRUE(q.cancel(far));
    EXPECT_FALSE(q.cancel(far));  // double-cancel reports false
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(q.empty());
}

/**
 * Horizon-seam boundary sweep (see the contract comment in
 * EventQueue::linkNode): ticks at exactly windowStart + horizon sit
 * on the ring/overflow seam — horizon−1 is the last near tick,
 * horizon aliases the anchor's bucket and must take the heap,
 * horizon+1 is plainly far. The sweep schedules priority-tied pairs
 * at all three offsets from several window anchors (including
 * re-anchored rings deep into wrapped ticks) and drains with both
 * execution engines — the classic unbounded step() and the
 * deadline-bounded stepBounded() behind run(max_cycles) — against the
 * stable-sort reference. Any off-by-one in linkNode/migrateFromFar would misfile
 * the seam tick and break the order or trip the foreign-tick assert.
 */
TEST(EventQueueProperties, HorizonSeamBoundarySweepOnBothEngines)
{
    constexpr uint32_t horizon = EventQueue::calendarHorizon;
    for (const bool windowed : {false, true}) {
        for (const Cycle base :
             {Cycle{0}, Cycle{1000}, Cycle{3} * horizon + 5}) {
            EventQueue q;
            if (base > 0) {
                q.schedule(base, []() {});
                while (q.step()) {
                }
                ASSERT_EQ(q.now(), base);
            }

            struct Ref
            {
                Cycle when;
                uint8_t prio;
                int label;
            };
            std::vector<Ref> refs;
            std::vector<int> fired;
            int label = 0;
            auto put = [&](Cycle delta, EventPriority prio) {
                const Cycle when = base + delta;
                const int l = label++;
                q.schedule(when, [&fired, l]() { fired.push_back(l); },
                           prio);
                refs.push_back(
                    {when, static_cast<uint8_t>(prio), l});
            };
            // Tied (tick, priority) pairs at every seam offset, in
            // deliberately scrambled priority order, plus anchor-tick
            // companions that share the aliased bucket.
            for (const Cycle delta :
                 {Cycle{0}, Cycle{horizon} - 1, Cycle{horizon},
                  Cycle{horizon} + 1}) {
                put(delta, EventPriority::Cpu);
                put(delta, EventPriority::Protocol);
                put(delta, EventPriority::Cpu);
                put(delta, EventPriority::Default);
            }

            std::stable_sort(refs.begin(), refs.end(),
                             [](const Ref &a, const Ref &b) {
                                 if (a.when != b.when)
                                     return a.when < b.when;
                                 return a.prio < b.prio;
                             });
            std::vector<int> expected;
            for (const Ref &r : refs)
                expected.push_back(r.label);

            if (windowed) {
                // Drain in lookahead-sized windows like the parallel
                // executor: every deadline lands on or next to the
                // seam at some point in the sweep.
                Cycle deadline = base;
                while (!q.empty()) {
                    while (q.stepBounded(deadline)) {
                    }
                    deadline += 3;
                }
            } else {
                while (q.step()) {
                }
            }
            ASSERT_EQ(fired, expected)
                << "windowed=" << windowed << " base=" << base;
            EXPECT_EQ(q.now(), base + horizon + 1);
        }
    }
}

/** stepBounded() with the deadline exactly on the seam: the peeked
 *  over-deadline node parks in the overflow heap and must resurface
 *  in exact (tick, priority, seq) order on the next window. */
TEST(EventQueueProperties, DeadlineParkAtSeamResurfacesInOrder)
{
    constexpr uint32_t horizon = EventQueue::calendarHorizon;
    EventQueue q;
    std::vector<int> order;
    q.schedule(horizon - 1, [&]() { order.push_back(0); });
    q.schedule(horizon, [&]() { order.push_back(2); },
               EventPriority::Cpu);
    q.schedule(horizon, [&]() { order.push_back(1); },
               EventPriority::Protocol);
    q.schedule(horizon + 1, [&]() { order.push_back(3); });

    // Window ending one tick before the seam: only horizon−1 fires;
    // the first seam event is peeked and parked.
    while (q.stepBounded(horizon - 1)) {
    }
    EXPECT_EQ(order, (std::vector<int>{0}));
    EXPECT_EQ(q.nextEventTick(), Cycle{horizon});

    // Window ending exactly on the seam: both horizon events fire in
    // priority order, the parked one included.
    while (q.stepBounded(horizon)) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(q.nextEventTick(), Cycle{horizon} + 1);

    while (q.stepBounded(horizon + 1)) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextEventTick(), EventQueue::kNeverTick);
}

/** Scheduling in the past is a hard error: it would corrupt the
 *  tick->bucket map, so it panics instead of misfiling the event. */
TEST(EventQueueDeath, PastScheduleIsFatal)
{
    EventQueue q;
    q.schedule(50, []() {});
    q.run();
    EXPECT_DEATH(q.schedule(10, []() {}),
                 "cannot schedule an event in the past");
}

TEST(Simulator, RunUntilStopsOnPredicate)
{
    Simulator sim;
    int count = 0;
    for (int i = 1; i <= 10; ++i)
        sim.queue().schedule(i, [&]() { ++count; });
    sim.runUntil([&]() { return count == 4; });
    EXPECT_EQ(count, 4);
    EXPECT_EQ(sim.now(), 4u);
}

TEST(Simulator, RunToCompletionDrainsQueue)
{
    Simulator sim;
    int count = 0;
    for (int i = 1; i <= 5; ++i)
        sim.queue().schedule(i * 7, [&]() { ++count; });
    sim.runToCompletion();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(sim.now(), 35u);
}

} // namespace
} // namespace logtm
