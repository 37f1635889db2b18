/** Unit tests for the discrete-event simulation kernel. */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "sim/simulator.h"

namespace ask::sim {
namespace {

TEST(Simulator, StartsAtZero)
{
    Simulator s;
    EXPECT_EQ(s.now(), 0);
    EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder)
{
    Simulator s;
    std::vector<int> order;
    s.schedule_at(30, [&] { order.push_back(3); });
    s.schedule_at(10, [&] { order.push_back(1); });
    s.schedule_at(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30);
}

TEST(Simulator, FifoAmongEqualTimestamps)
{
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        s.schedule_at(10, [&order, i] { order.push_back(i); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime)
{
    Simulator s;
    SimTime inner_time = -1;
    s.schedule_at(100, [&] {
        s.schedule_after(50, [&] { inner_time = s.now(); });
    });
    s.run();
    EXPECT_EQ(inner_time, 150);
}

TEST(Simulator, CancelPreventsExecution)
{
    Simulator s;
    bool fired = false;
    EventId id = s.schedule_at(10, [&] { fired = true; });
    EXPECT_TRUE(s.cancel(id));
    s.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, CancelInvalidIdReturnsFalse)
{
    Simulator s;
    EXPECT_FALSE(s.cancel(kInvalidEvent));
    EXPECT_FALSE(s.cancel(999));
}

TEST(Simulator, DoubleCancelReturnsFalse)
{
    Simulator s;
    EventId id = s.schedule_at(10, [] {});
    EXPECT_TRUE(s.cancel(id));
    EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, RunUntilStopsAtDeadline)
{
    Simulator s;
    int fired = 0;
    s.schedule_at(10, [&] { ++fired; });
    s.schedule_at(20, [&] { ++fired; });
    s.schedule_at(30, [&] { ++fired; });
    s.run_until(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.now(), 20);
    s.run();
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesTimeWithEmptyQueue)
{
    Simulator s;
    s.run_until(500);
    EXPECT_EQ(s.now(), 500);
}

TEST(Simulator, StepExecutesOneEvent)
{
    Simulator s;
    int fired = 0;
    s.schedule_at(1, [&] { ++fired; });
    s.schedule_at(2, [&] { ++fired; });
    EXPECT_TRUE(s.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(s.step());
    EXPECT_FALSE(s.step());
}

TEST(Simulator, EventsCanScheduleEvents)
{
    Simulator s;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 10)
            s.schedule_after(5, recurse);
    };
    s.schedule_at(0, recurse);
    s.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(s.now(), 45);
    EXPECT_EQ(s.executed(), 10u);
}

TEST(Simulator, PendingCountsLiveEvents)
{
    Simulator s;
    EventId a = s.schedule_at(10, [] {});
    s.schedule_at(20, [] {});
    EXPECT_EQ(s.pending(), 2u);
    s.cancel(a);
    EXPECT_EQ(s.pending(), 1u);
    s.run();
    EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, CancelledEventDoesNotAdvanceClock)
{
    Simulator s;
    EventId far = s.schedule_at(1000, [] {});
    s.schedule_at(10, [] {});
    s.cancel(far);
    s.run();
    EXPECT_EQ(s.now(), 10);
}

TEST(Simulator, CancelAfterFireReturnsFalse)
{
    Simulator s;
    EventId id = s.schedule_at(10, [] {});
    s.run();
    EXPECT_FALSE(s.cancel(id));
    EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, SelfCancelFromHandlerReturnsFalse)
{
    Simulator s;
    EventId id = kInvalidEvent;
    bool cancelled = true;
    id = s.schedule_at(10, [&] { cancelled = s.cancel(id); });
    s.run();
    EXPECT_FALSE(cancelled);
    EXPECT_EQ(s.pending(), 0u);
    EXPECT_EQ(s.executed(), 1u);
}

TEST(Simulator, StaleHandleCannotCancelTheSlotsNextEvent)
{
    Simulator s;
    EventId fired = s.schedule_at(1, [] {});
    s.run();
    EventId dropped = s.schedule_at(5, [] {});
    EXPECT_TRUE(s.cancel(dropped));
    int runs = 0;
    // Both earlier events released their slot; this one reuses it.
    EventId live = s.schedule_at(9, [&] { ++runs; });
    EXPECT_NE(live, fired);
    EXPECT_NE(live, dropped);
    EXPECT_FALSE(s.cancel(fired));
    EXPECT_FALSE(s.cancel(dropped));
    EXPECT_EQ(s.pending(), 1u);
    s.run();
    EXPECT_EQ(runs, 1);
}

/**
 * Randomized differential test against a reference queue: a std::map
 * keyed by (time, schedule order). Top-level operations (schedule,
 * cancel of any id ever handed out, step, run_until, run_before,
 * next_event_time) and handler actions (schedule, cancel another, cancel
 * self) are mirrored on the model; execution order, now(), pending() and
 * every cancel result must agree at every step.
 */
TEST(Simulator, MatchesReferenceQueueUnderRandomOperations)
{
    Rng rng = seeded_rng("sim_test.differential", 13);
    Simulator s;

    using Key = std::pair<SimTime, std::uint64_t>;
    std::map<Key, std::size_t> model;      // pending: (time, seq) -> tag
    std::vector<EventId> ids;              // tag -> handle
    std::vector<Key> keys;                 // tag -> model key
    std::uint64_t model_seq = 0;
    SimTime model_now = 0;
    SimTime limit = 0;
    bool limit_inclusive = true;
    bool bounded = false;
    std::uint64_t fired = 0;
    std::uint64_t cancels_true = 0;

    auto cancel_both = [&](std::size_t tag) {
        bool expect = model.erase(keys[tag]) == 1;
        EXPECT_EQ(s.cancel(ids[tag]), expect) << "tag " << tag;
        cancels_true += expect ? 1 : 0;
    };

    // Half the cancels aim at recent ids, which are likely still pending;
    // the rest at any id ever handed out, which has likely fired.
    auto pick_tag = [&] {
        std::size_t n = ids.size();
        if (rng.chance(0.5))
            return n - 1 - rng.next_below(std::min<std::size_t>(n, 32));
        return static_cast<std::size_t>(rng.next_below(n));
    };

    std::function<void(SimTime)> schedule_both;
    auto fire = [&](std::size_t tag) {
        ++fired;
        ASSERT_FALSE(model.empty());
        auto head = model.begin();
        ASSERT_EQ(head->second, tag) << "execution order diverged";
        if (bounded) {
            ASSERT_TRUE(limit_inclusive ? head->first.first <= limit
                                        : head->first.first < limit);
        }
        model_now = head->first.first;
        model.erase(head);
        ASSERT_EQ(s.now(), model_now);
        switch (rng.next_below(6)) {
          case 0:
            EXPECT_FALSE(s.cancel(ids[tag]));  // its own handle is stale
            break;
          case 1:
            cancel_both(pick_tag());
            break;
          case 2:
          case 3:
            schedule_both(static_cast<SimTime>(rng.next_below(4)));
            break;
          default:
            break;
        }
    };

    schedule_both = [&](SimTime delay) {
        std::size_t tag = ids.size();
        Key key{model_now + delay, model_seq++};
        keys.push_back(key);
        model.emplace(key, tag);
        ids.push_back(s.schedule_after(delay, [&fire, tag] { fire(tag); }));
    };

    for (int op = 0; op < 120000; ++op) {
        std::uint64_t kind = rng.next_below(100);
        if (kind < 45) {
            // Small delays so equal timestamps are common.
            schedule_both(static_cast<SimTime>(rng.next_below(8)));
        } else if (kind < 65) {
            if (!ids.empty())
                cancel_both(pick_tag());
        } else if (kind < 90) {
            bool any = !model.empty();
            EXPECT_EQ(s.step(), any);
        } else if (kind < 94) {
            limit = model_now + static_cast<SimTime>(rng.next_below(6));
            limit_inclusive = true;
            bounded = true;
            s.run_until(limit);
            bounded = false;
            EXPECT_TRUE(model.empty() || model.begin()->first.first > limit);
            model_now = std::max(model_now, limit);
        } else if (kind < 98) {
            limit = model_now + static_cast<SimTime>(rng.next_below(6));
            limit_inclusive = false;
            bounded = true;
            s.run_before(limit);
            bounded = false;
            EXPECT_TRUE(model.empty() || model.begin()->first.first >= limit);
        } else {
            SimTime t = -1;
            bool any = s.next_event_time(&t);
            ASSERT_EQ(any, !model.empty());
            if (any) {
                EXPECT_EQ(t, model.begin()->first.first);
            }
        }
        ASSERT_EQ(s.now(), model_now) << "op " << op;
        ASSERT_EQ(s.pending(), model.size()) << "op " << op;
    }
    s.run();
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(s.pending(), 0u);
    EXPECT_EQ(s.executed(), fired);
    // The mix must really exercise both outcomes of cancel and firing.
    EXPECT_GT(cancels_true, 1000u);
    EXPECT_GT(fired, 10000u);
}

}  // namespace
}  // namespace ask::sim
