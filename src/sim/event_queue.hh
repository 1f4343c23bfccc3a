/**
 * @file
 * Deterministic discrete-event scheduler.
 *
 * All timing simulation in gpu-nosync is driven by a single EventQueue.
 * Events run in (tick, EventPriority, FIFO) order: events scheduled for
 * the same tick and priority fire in the order they were scheduled,
 * which together with the deterministic RNG makes every simulation
 * fully reproducible.
 *
 * The queue is a timing wheel. Events less than kWheelTicks ahead sit
 * in per-tick buckets (one intrusive FIFO list per priority) found
 * through an occupancy bitmap, so scheduling and executing an event is
 * O(1). The rare event further ahead waits in a small heap and moves
 * into its bucket as soon as its tick enters the window, before any
 * event of the new tick runs; that keeps the order exact (DESIGN.md
 * section 10). Callbacks live in event nodes that never move, and run
 * in place.
 */

#ifndef SIM_EVENT_QUEUE_HH
#define SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "logging.hh"
#include "small_fn.hh"
#include "types.hh"

namespace nosync
{

/** Priority for events that share a tick; lower runs first. */
enum class EventPriority : int
{
    NetworkDelivery = 0,
    Default = 1,
    CuIssue = 2,
    Stats = 3,
};

/**
 * Callback type for scheduled events. Captures up to the inline
 * capacity live inside the event node itself — no heap allocation
 * on the schedule/execute hot path; larger captures spill to the
 * heap transparently. The capacity holds the largest continuation a
 * component schedules: an L2 bank access, {this, line, LineFn}.
 */
using EventFn = SmallFn<void(), 152>;

/**
 * A single-owner discrete-event queue.
 *
 * Callbacks are SmallFn thunks; components capture `this` and
 * whatever request state they need. The queue never runs callbacks
 * re-entrantly: schedule() during a callback enqueues for later.
 */
class EventQueue
{
  public:
    /** Ticks covered by the wheel; events further ahead wait aside. */
    static constexpr Tick kWheelTicks = 1024;

    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p fn to run at absolute tick @p when. The callable
     * is built once, in the event node that runs it.
     * @pre when >= now()
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn,
             EventPriority prio = EventPriority::Default)
    {
        panic_if(when < _now, "scheduling event in the past (", when,
                 " < ", _now, ")");
        std::uint32_t idx = allocNode();
        node(idx).fn.emplace(std::forward<F>(fn));
        ++_pending;
        if (when - _now < kWheelTicks) {
            link(when, static_cast<unsigned>(prio), idx);
        } else {
            // Same-tick order: priority first, then FIFO. Both fold
            // into one 64-bit key (priority in the top bits, a
            // monotonic sequence below).
            _far.push(FarEntry{
                when,
                (static_cast<std::uint64_t>(prio) << kSeqBits) |
                    _nextSeq++,
                idx});
        }
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Cycles delay, F &&fn,
               EventPriority prio = EventPriority::Default)
    {
        schedule(_now + delay, std::forward<F>(fn), prio);
    }

    /** Whether any events remain. */
    bool empty() const { return _pending == 0; }

    /** Tick of the earliest pending event; ~Tick{0} when empty. */
    Tick
    nextEventTick() const
    {
        if (_pending == 0)
            return ~Tick{0};
        // Far events are all later than any bucketed one.
        return _pending > _far.size() ? nextWheelTick() : _far.top().when;
    }

    /** Number of pending events. */
    std::size_t pending() const { return _pending; }

    /**
     * Run events until the queue drains or @p limit ticks elapse.
     * @return the tick of the last executed event.
     */
    Tick run(Tick limit = ~Tick{0});

    /** Execute at most one event. @return false if queue was empty. */
    bool step();

    /** Total events executed since construction. */
    std::uint64_t executed() const { return _executed; }

  private:
    static constexpr Tick kWheelMask = kWheelTicks - 1;
    static constexpr unsigned kPriorities = 4;
    static constexpr unsigned kBitmapWords = kWheelTicks / 64;
    static_assert((kWheelTicks & kWheelMask) == 0 && kBitmapWords > 0,
                  "the wheel spans a power-of-two multiple of 64 ticks");

    /** Nodes per chunk; chunks are allocated whole and never move. */
    static constexpr unsigned kChunkBits = 8;
    static constexpr std::uint32_t kChunkNodes = 1u << kChunkBits;

    /** End of a node list. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** Bits of the far-heap order key reserved for the FIFO sequence. */
    static constexpr unsigned kSeqBits = 56;

    /** One scheduled (or free) event. */
    struct Node
    {
        /** Next node in its bucket list, or in the free list. */
        std::uint32_t next = kNil;
        EventFn fn;
    };

    /** Intrusive FIFO list of nodes. */
    struct List
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    /** The events of one tick, one list per priority. */
    using Bucket = std::array<List, kPriorities>;

    /** An event at least kWheelTicks ahead when it was scheduled. */
    struct FarEntry
    {
        Tick when;
        std::uint64_t key; ///< (priority << kSeqBits) | sequence
        std::uint32_t node;

        bool
        operator>(const FarEntry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return key > other.key;
        }
    };

    Node &
    node(std::uint32_t idx)
    {
        return _chunks[idx >> kChunkBits][idx & (kChunkNodes - 1)];
    }

    /** Take a free (empty) node, allocating a chunk if none. */
    std::uint32_t
    allocNode()
    {
        if (_freeNode == kNil)
            addChunk();
        std::uint32_t idx = _freeNode;
        _freeNode = node(idx).next;
        return idx;
    }

    /** Append node @p idx to the @p prio list of tick @p when. */
    void
    link(Tick when, unsigned prio, std::uint32_t idx)
    {
        std::size_t b = when & kWheelMask;
        List &list = _wheel[b][prio];
        node(idx).next = kNil;
        if (list.tail == kNil)
            list.head = idx;
        else
            node(list.tail).next = idx;
        list.tail = idx;
        _occupied[b / 64] |= std::uint64_t{1} << (b % 64);
    }

    void addChunk();

    /** Earliest tick with a bucketed event. @pre the wheel is not empty */
    Tick nextWheelTick() const;

    /**
     * Advance now() to @p when and move every far event that enters
     * the window into its bucket, in (tick, priority, FIFO) order.
     */
    void advanceTo(Tick when);

    /** Run the first event of tick @p when. @pre when == nextEventTick() */
    void runAt(Tick when);

    /** kWheelTicks buckets; tick t lives in bucket t % kWheelTicks. */
    std::unique_ptr<Bucket[]> _wheel;
    /** One bit per bucket: whether it holds any event. */
    std::array<std::uint64_t, kBitmapWords> _occupied{};
    std::vector<std::unique_ptr<Node[]>> _chunks;
    std::uint32_t _freeNode = kNil;
    std::priority_queue<FarEntry, std::vector<FarEntry>, std::greater<>>
        _far;
    std::size_t _pending = 0;
    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
};

} // namespace nosync

#endif // SIM_EVENT_QUEUE_HH
