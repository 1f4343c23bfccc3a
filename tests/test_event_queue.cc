/**
 * @file
 * Unit tests for the discrete-event scheduler.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <ostream>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"

using namespace nosync;

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); },
                EventPriority::CuIssue);
    eq.schedule(5, [&] { order.push_back(0); },
                EventPriority::NetworkDelivery);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(4, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StepExecutesOneEvent)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

// Regression tests for the slab-recycled callback storage: freed
// callback slots are reused by later schedules, and the FIFO sequence
// numbering must survive that recycling.

TEST(EventQueue, SameTickFifoSurvivesSlotRecycling)
{
    EventQueue eq;
    std::vector<int> order;
    // Phase 1 populates and frees a batch of slots.
    for (int i = 0; i < 16; ++i)
        eq.schedule(1, [&order, i] { order.push_back(i); });
    eq.run();
    order.clear();
    // Phase 2 reuses the freed slots; FIFO order must be by schedule
    // time, not by slot index.
    for (int i = 15; i >= 0; --i)
        eq.schedule(10, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], 15 - i);
}

TEST(EventQueue, EventsScheduledFromCallbacksKeepFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    // The callback schedules more same-tick work while its own slot
    // has already been freed for reuse.
    eq.schedule(5, [&] {
        order.push_back(0);
        eq.schedule(5, [&] { order.push_back(2); });
        eq.schedule(5, [&] { order.push_back(3); });
    });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, PriorityStillBeatsFifoAfterRecycling)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        eq.schedule(1, [] {});
    eq.run();
    eq.schedule(9, [&] { order.push_back(2); },
                EventPriority::Stats);
    eq.schedule(9, [&] { order.push_back(1); });
    eq.schedule(9, [&] { order.push_back(0); },
                EventPriority::NetworkDelivery);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, LargeCapturesBeyondInlineBufferWork)
{
    EventQueue eq;
    // A 200-byte capture exceeds the EventFn inline buffer and takes
    // the heap-fallback path; it must still run and destroy cleanly.
    std::array<std::uint64_t, 25> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = i + 1;
    std::uint64_t sum = 0;
    auto fn = [payload, &sum] {
        for (auto v : payload)
            sum += v;
    };
    static_assert(!EventFn::fitsInline<decltype(fn)>());
    eq.schedule(1, std::move(fn));
    eq.run();
    EXPECT_EQ(sum, 325u);
}

namespace
{

/** Counts how a callable is built, relocated and run. */
struct Lifecycle
{
    int constructed = 0;
    int moved = 0;
    int copied = 0;
    int ran = 0;
};

struct CountingFn
{
    Lifecycle *life;

    explicit CountingFn(Lifecycle *l) : life(l) { ++life->constructed; }
    CountingFn(const CountingFn &other) : life(other.life)
    {
        ++life->copied;
    }
    CountingFn(CountingFn &&other) noexcept : life(other.life)
    {
        ++life->moved;
    }
    void operator()() { ++life->ran; }
};

} // namespace

TEST(EventQueue, CallableIsBuiltOnceInItsNode)
{
    // A scheduled callable reaches its event node by at most one
    // (inline, concrete) move from the caller's temporary; the queue
    // never copies it or relocates it through type erasure.
    static_assert(EventFn::fitsInline<CountingFn>());
    EventQueue eq;
    Lifecycle at, in;
    eq.schedule(2, CountingFn{&at});
    eq.scheduleIn(3, CountingFn{&in}, EventPriority::CuIssue);
    eq.run();
    for (const Lifecycle *life : {&at, &in}) {
        EXPECT_EQ(life->constructed, 1);
        EXPECT_LE(life->moved, 1);
        EXPECT_EQ(life->copied, 0);
        EXPECT_EQ(life->ran, 1);
    }
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

// ---------------------------------------------------------------------
// The timing wheel against the rule it replaced
// ---------------------------------------------------------------------

namespace
{

constexpr Tick kW = EventQueue::kWheelTicks;

/**
 * Reference model of the execution order: one binary heap ordered on
 * (tick, priority, schedule sequence), with the same run(limit) rule
 * (now() moves to the limit only while events remain).
 */
class ReferenceQueue
{
  public:
    Tick now() const { return _now; }

    void
    schedule(Tick when, std::function<void()> fn, EventPriority prio)
    {
        _heap.push(Entry{when, static_cast<int>(prio), _seq++,
                         std::move(fn)});
    }

    std::size_t pending() const { return _heap.size(); }

    Tick
    nextEventTick() const
    {
        return _heap.empty() ? ~Tick{0} : _heap.top().when;
    }

    Tick
    run(Tick limit = ~Tick{0})
    {
        while (!_heap.empty() && _heap.top().when <= limit)
            step();
        if (_now < limit && !_heap.empty())
            _now = limit;
        return _now;
    }

    bool
    step()
    {
        if (_heap.empty())
            return false;
        Entry top = _heap.top();
        _heap.pop();
        _now = top.when;
        top.fn();
        return true;
    }

  private:
    struct Entry
    {
        Tick when;
        int prio;
        std::uint64_t seq;
        std::function<void()> fn;

        bool
        operator>(const Entry &other) const
        {
            return std::tie(when, prio, seq) >
                   std::tie(other.when, other.prio, other.seq);
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> _heap;
    Tick _now = 0;
    std::uint64_t _seq = 0;
};

/** What one executed event saw. */
struct Fired
{
    std::uint64_t id;
    Tick now;
    std::size_t pending;
    Tick next;

    bool
    operator==(const Fired &other) const
    {
        return std::tie(id, now, pending, next) ==
               std::tie(other.id, other.now, other.pending, other.next);
    }
};

std::ostream &
operator<<(std::ostream &os, const Fired &f)
{
    return os << "{id " << f.id << " @" << f.now << " pending "
              << f.pending << " next " << f.next << "}";
}

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** A delay in [0, 3W], weighted toward short ones and the edges. */
Tick
drawDelay(std::uint64_t r)
{
    std::uint64_t kind = r % 8;
    std::uint64_t v = r >> 8;
    if (kind < 3)
        return v % 4;
    if (kind == 3)
        return v % 64;
    if (kind == 4)
        return v % kW;
    if (kind == 5)
        return kW - 1 + v % 3; // W-1, W, W+1
    return v % (3 * kW + 1);
}

/**
 * A seeded random program over queue type Q. Every event records what
 * it saw, then schedules 0-3 successors chosen by a hash of its id, so
 * two queues that agree on the order run the same program.
 */
template <typename Q>
class Program
{
  public:
    Program(Q &q, std::uint64_t seed) : _q(q), _seed(seed) {}

    void
    scheduleRoot(Tick delay, EventPriority prio)
    {
        add(_q.now() + delay, prio);
    }

    const std::vector<Fired> &log() const { return _log; }

  private:
    void
    add(Tick when, EventPriority prio)
    {
        std::uint64_t id = _nextId++;
        _q.schedule(when, [this, id] { fire(id); }, prio);
    }

    void
    fire(std::uint64_t id)
    {
        _log.push_back({id, _q.now(), _q.pending(), _q.nextEventTick()});
        std::uint64_t h = mix(_seed ^ mix(id));
        // 0, 1, 2 or 3 successors with odds 7:5:3:1 (mean 0.75), so
        // the program neither dies out at once nor explodes.
        unsigned draw = h & 15;
        unsigned children = (draw >= 7) + (draw >= 12) + (draw >= 15);
        for (unsigned c = 0; c < children; ++c) {
            std::uint64_t r = mix(h + c);
            add(_q.now() + drawDelay(r),
                static_cast<EventPriority>((r >> 4) % 4));
        }
    }

    Q &_q;
    std::uint64_t _seed;
    std::uint64_t _nextId = 0;
    std::vector<Fired> _log;
};

} // namespace

TEST(EventQueueWheel, MatchesReferenceOnRandomPrograms)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        EventQueue wheel;
        ReferenceQueue ref;
        Program<EventQueue> pw(wheel, seed);
        Program<ReferenceQueue> pr(ref, seed);
        std::uint64_t r = mix(seed);
        for (int op = 0; op < 400; ++op) {
            r = mix(r);
            std::uint64_t kind = r % 10;
            if (kind < 4) {
                for (unsigned i = 0; i <= (r >> 8) % 4; ++i) {
                    std::uint64_t d = mix(r + i);
                    auto prio = static_cast<EventPriority>(d % 4);
                    pw.scheduleRoot(drawDelay(d >> 2), prio);
                    pr.scheduleRoot(drawDelay(d >> 2), prio);
                }
            } else if (kind < 7) {
                EXPECT_EQ(wheel.step(), ref.step());
            } else {
                // Limits inside and beyond the window, and short ones.
                Tick span = kind < 9 ? 3 * kW : 16;
                Tick limit = wheel.now() + (r >> 8) % span;
                EXPECT_EQ(wheel.run(limit), ref.run(limit));
            }
            ASSERT_EQ(pw.log(), pr.log()) << "after op " << op;
            ASSERT_EQ(wheel.now(), ref.now());
            ASSERT_EQ(wheel.pending(), ref.pending());
            ASSERT_EQ(wheel.nextEventTick(), ref.nextEventTick());
        }
        EXPECT_EQ(wheel.run(), ref.run());
        EXPECT_EQ(pw.log(), pr.log());
        EXPECT_TRUE(wheel.empty());
        EXPECT_EQ(wheel.executed(), pw.log().size());
    }
}

TEST(EventQueueWheel, NearAndFarEventsShareATickInOrder)
{
    EventQueue eq;
    std::vector<std::string> order;
    auto rec = [&order](const char *what) {
        return [&order, what] { order.push_back(what); };
    };
    const Tick t = kW + 10;
    // Scheduled at tick 0, t is beyond the window: these wait aside.
    eq.schedule(t, rec("far-stats"), EventPriority::Stats);
    eq.schedule(t, rec("far-default"));
    eq.schedule(t, rec("far-net"), EventPriority::NetworkDelivery);
    eq.schedule(t, rec("far-default-2"));
    // At tick 20, t is inside the window: these go straight in.
    eq.schedule(20, [&] {
        eq.schedule(t, rec("near-cu"), EventPriority::CuIssue);
        eq.schedule(t, rec("near-default"));
        eq.schedule(t, rec("near-net"), EventPriority::NetworkDelivery);
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<std::string>{
                         "far-net", "near-net", "far-default",
                         "far-default-2", "near-default", "near-cu",
                         "far-stats"}));
    EXPECT_EQ(eq.now(), t);
}

TEST(EventQueueWheel, EventsAtTheWindowEdge)
{
    EventQueue eq;
    // Move now to an unaligned tick with something still pending.
    eq.schedule(5 * kW, [] {});
    EXPECT_EQ(eq.run(37), 37u);
    std::vector<Tick> fired;
    auto rec = [&] { fired.push_back(eq.now()); };
    const Tick base = eq.now();
    eq.schedule(base + kW + 1, rec, EventPriority::NetworkDelivery);
    eq.schedule(base + kW, rec, EventPriority::Stats);
    eq.schedule(base + kW - 1, rec, EventPriority::CuIssue);
    EXPECT_EQ(eq.pending(), 4u);
    EXPECT_EQ(eq.nextEventTick(), base + kW - 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.nextEventTick(), base + kW);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.nextEventTick(), base + kW + 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.nextEventTick(), 5 * kW);
    EXPECT_EQ(fired,
              (std::vector<Tick>{base + kW - 1, base + kW, base + kW + 1}));
    eq.run();
    EXPECT_EQ(eq.now(), 5 * kW);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueWheel, CallbackSchedulingManyEventsRunsInPlace)
{
    EventQueue eq;
    // The running callback's inline captures must stay intact while
    // it schedules enough events to allocate several new node chunks.
    std::array<std::uint64_t, 4> payload{11, 22, 33, 44};
    int ran = 0;
    std::uint64_t seen = 0;
    EventFn fn = [&eq, &ran, &seen, payload] {
        for (int i = 0; i < 2000; ++i)
            eq.scheduleIn(i % 7, [&ran] { ++ran; });
        for (auto v : payload)
            seen += v;
    };
    ASSERT_TRUE(fn.storedInline());
    eq.schedule(3, std::move(fn));
    eq.run();
    EXPECT_EQ(seen, 110u);
    EXPECT_EQ(ran, 2000);
    EXPECT_EQ(eq.executed(), 2001u);
}
