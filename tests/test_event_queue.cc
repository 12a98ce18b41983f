/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "sim/event_queue.hh"

using namespace polca::sim;

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue queue;
    EXPECT_EQ(queue.now(), 0);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_FALSE(queue.runOne());
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    std::ignore = queue.schedule(30, [&] { order.push_back(3); });
    std::ignore = queue.schedule(10, [&] { order.push_back(1); });
    std::ignore = queue.schedule(20, [&] { order.push_back(2); });
    queue.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(queue.now(), 30);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue queue;
    std::vector<int> order;
    std::ignore = queue.schedule(5, [&] { order.push_back(1); });
    std::ignore = queue.schedule(5, [&] { order.push_back(2); });
    std::ignore = queue.schedule(5, [&] { order.push_back(3); });
    queue.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, NowAdvancesToEventTime)
{
    EventQueue queue;
    Tick seen = -1;
    std::ignore = queue.schedule(42, [&] { seen = queue.now(); });
    queue.runOne();
    EXPECT_EQ(seen, 42);
    EXPECT_EQ(queue.now(), 42);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue queue;
    int fired = 0;
    std::ignore = queue.schedule(10, [&] { ++fired; });
    std::ignore = queue.schedule(20, [&] { ++fired; });
    std::ignore = queue.schedule(21, [&] { ++fired; });
    EXPECT_EQ(queue.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(queue.now(), 20);
    EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenDrained)
{
    EventQueue queue;
    queue.runUntil(1000);
    EXPECT_EQ(queue.now(), 1000);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue queue;
    Tick seen = -1;
    std::ignore = queue.schedule(100, [&] {
        std::ignore = queue.scheduleAfter(50, [&] { seen = queue.now(); });
    });
    queue.runAll();
    EXPECT_EQ(seen, 150);
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue queue;
    bool fired = false;
    auto handle = queue.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(handle.pending());
    queue.cancel(handle);
    EXPECT_FALSE(handle.pending());
    queue.runAll();
    EXPECT_FALSE(fired);
    EXPECT_EQ(queue.numProcessed(), 0u);
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue queue;
    auto handle = queue.schedule(10, [] {});
    queue.runAll();
    EXPECT_FALSE(handle.pending());
    queue.cancel(handle);  // must not crash or corrupt counters
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, DefaultHandleIsInert)
{
    EventQueue queue;
    EventQueue::Handle handle;
    EXPECT_FALSE(handle.pending());
    queue.cancel(handle);  // no-op
}

TEST(EventQueue, CancelledEventsDoNotCountAsLive)
{
    EventQueue queue;
    auto a = queue.schedule(10, [] {});
    std::ignore = queue.schedule(20, [] {});
    EXPECT_EQ(queue.size(), 2u);
    queue.cancel(a);
    EXPECT_EQ(queue.size(), 1u);
    EXPECT_FALSE(queue.empty());
}

TEST(EventQueue, ReentrantSchedulingDuringCallback)
{
    EventQueue queue;
    std::vector<Tick> times;
    std::ignore = queue.schedule(10, [&] {
        times.push_back(queue.now());
        std::ignore = queue.schedule(15, [&] { times.push_back(queue.now()); });
        std::ignore = queue.schedule(12, [&] { times.push_back(queue.now()); });
    });
    queue.runAll();
    EXPECT_EQ(times, (std::vector<Tick>{10, 12, 15}));
}

TEST(EventQueue, SchedulingAtCurrentTimeDuringCallbackFiresSameRun)
{
    EventQueue queue;
    int count = 0;
    std::ignore = queue.schedule(10, [&] {
        ++count;
        if (count < 3)
            std::ignore = queue.schedule(queue.now(), [&] { ++count; });
    });
    queue.runAll();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, NumProcessedCounts)
{
    EventQueue queue;
    for (int i = 0; i < 5; ++i)
        std::ignore = queue.schedule(i, [] {});
    queue.runAll();
    EXPECT_EQ(queue.numProcessed(), 5u);
}

TEST(EventQueueDeath, SchedulingInPastPanics)
{
    EventQueue queue;
    std::ignore = queue.schedule(10, [] {});
    queue.runAll();
    EXPECT_DEATH(std::ignore = queue.schedule(5, [] {}), "in the past");
}

TEST(EventQueueDeath, NegativeDelayPanics)
{
    EventQueue queue;
    EXPECT_DEATH(std::ignore = queue.scheduleAfter(-1, [] {}),
                 "negative delay");
}

TEST(EventQueueDeath, EmptyCallbackPanics)
{
    EventQueue queue;
    EXPECT_DEATH(std::ignore = queue.schedule(1, EventQueue::Callback{}),
                 "empty callback");
}

TEST(EventQueue, PostFiresInTimeOrderInterleavedWithSchedule)
{
    EventQueue queue;
    std::vector<int> order;
    queue.post(30, [&] { order.push_back(3); });
    std::ignore = queue.schedule(10, [&] { order.push_back(1); });
    queue.post(20, [&] { order.push_back(2); });
    std::ignore = queue.schedule(20, [&] { order.push_back(4); });  // tie: after 2
    queue.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
    EXPECT_EQ(queue.numProcessed(), 4u);
}

TEST(EventQueue, PostCountsAsLive)
{
    EventQueue queue;
    queue.post(10, [] {});
    queue.postAfter(5, [] {});
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_FALSE(queue.empty());
    queue.runAll();
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.highWaterMark(), 2u);
}

TEST(EventQueue, PostAfterUsesCurrentTime)
{
    EventQueue queue;
    Tick seen = -1;
    queue.post(100, [&] {
        queue.postAfter(50, [&] { seen = queue.now(); });
    });
    queue.runAll();
    EXPECT_EQ(seen, 150);
}

TEST(EventQueueDeath, PostInPastPanics)
{
    EventQueue queue;
    queue.post(10, [] {});
    queue.runAll();
    EXPECT_DEATH(queue.post(5, [] {}), "in the past");
}

TEST(EventQueueDeath, PostAfterNegativeDelayPanics)
{
    EventQueue queue;
    EXPECT_DEATH(queue.postAfter(-1, [] {}), "negative delay");
}

TEST(EventQueueDeath, PostEmptyCallbackPanics)
{
    EventQueue queue;
    EXPECT_DEATH(queue.post(1, EventQueue::Callback{}),
                 "empty callback");
}

TEST(EventQueue, StaleHandleCancelDoesNotKillRecycledSlot)
{
    EventQueue queue;
    // Fire A; its slab slot is recycled by B.  Cancelling A's stale
    // handle afterwards must be a no-op, not kill B.
    auto a = queue.schedule(10, [] {});
    queue.runAll();
    bool bFired = false;
    auto b = queue.schedule(20, [&] { bFired = true; });
    queue.cancel(a);
    EXPECT_TRUE(b.pending());
    queue.runAll();
    EXPECT_TRUE(bFired);
}

TEST(EventQueue, HandleFromBeforeRestoreStaysInertAfterRearmReusesIt)
{
    EventQueue queue;
    auto old = queue.schedule(10, [] {});
    EventQueueState state = queue.captureState();

    // The slab has one slot, so the re-armed event takes the
    // discarded event's slot, and it reuses the discarded seq.
    queue.beginRestore(state);
    EXPECT_FALSE(old.pending());
    bool fired = false;
    auto rearmed = queue.rearmSchedule(old.when(), old.seq(),
                                       [&] { fired = true; });
    queue.endRestore(1);
    EXPECT_EQ(rearmed.seq(), old.seq());
    EXPECT_TRUE(rearmed.pending());
    EXPECT_FALSE(old.pending());

    queue.cancel(old);  // must not cancel the re-armed event
    EXPECT_TRUE(rearmed.pending());
    EXPECT_EQ(queue.size(), 1u);
    queue.runAll();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, HandleIsNotPendingInsideItsOwnCallback)
{
    EventQueue queue;
    EventQueue::Handle handle;
    bool pendingInside = true;
    std::size_t liveInside = 0;
    handle = queue.schedule(10, [&] {
        pendingInside = handle.pending();
        queue.cancel(handle);  // no-op: the event is firing
        liveInside = queue.size();
    });
    std::ignore = queue.schedule(20, [] {});
    queue.runUntil(10);
    EXPECT_FALSE(pendingInside);
    EXPECT_EQ(liveInside, 1u);
    EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueueDeath, CancelWithAnotherQueuesHandlePanics)
{
    EventQueue mine;
    EventQueue other;
    auto foreign = other.schedule(10, [] {});
    std::ignore = mine.schedule(10, [] {});
    // Both events sit in slot 0 of their queue: without the check,
    // the foreign handle would cancel the event queued in `mine`.
    EXPECT_DEATH(mine.cancel(foreign), "another event queue");
}

TEST(EventQueue, CancelledSlotIsRecycledAfterPop)
{
    EventQueue queue;
    auto a = queue.schedule(10, [] {});
    queue.cancel(a);
    int fired = 0;
    std::ignore = queue.schedule(5, [&] { ++fired; });
    queue.runAll();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(queue.numProcessed(), 1u);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, ReserveDoesNotDisturbPendingEvents)
{
    EventQueue queue;
    int fired = 0;
    queue.post(10, [&] { ++fired; });
    queue.reserve(1000);
    queue.post(20, [&] { ++fired; });
    queue.runAll();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue queue;
    Tick last = -1;
    bool ordered = true;
    for (int i = 0; i < 10000; ++i) {
        Tick when = (i * 7919) % 1000;  // scrambled times
        std::ignore = queue.schedule(when, [&, when] {
            if (when < last)
                ordered = false;
            last = when;
        });
    }
    queue.runAll();
    EXPECT_TRUE(ordered);
    EXPECT_EQ(queue.numProcessed(), 10000u);
}

TEST(EventQueue, StressMixedPathsWithCancellations)
{
    // Hammer the slab free list: interleave handled and
    // fire-and-forget events, cancel a deterministic third of the
    // handled ones, and check the survivors all fire in order.
    EventQueue queue;
    Tick last = -1;
    bool ordered = true;
    int fired = 0;
    std::vector<EventQueue::Handle> toCancel;
    for (int i = 0; i < 5000; ++i) {
        Tick when = (i * 7919) % 1000;
        auto cb = [&, when] {
            if (when < last)
                ordered = false;
            last = when;
            ++fired;
        };
        if (i % 2 == 0) {
            auto handle = queue.schedule(when, cb);
            if (i % 6 == 0)
                toCancel.push_back(handle);
        } else {
            queue.post(when, cb);
        }
    }
    for (auto &handle : toCancel)
        queue.cancel(handle);
    EXPECT_EQ(queue.size(), 5000u - toCancel.size());
    queue.runAll();
    EXPECT_TRUE(ordered);
    EXPECT_EQ(fired, 5000 - static_cast<int>(toCancel.size()));
    EXPECT_TRUE(queue.empty());
}
