/**
 * @file
 * Deterministic discrete-event scheduler.
 *
 * All timing simulation in gpu-nosync is driven by a single EventQueue.
 * Events scheduled for the same tick fire in the order they were
 * scheduled (FIFO), which together with the deterministic RNG makes
 * every simulation fully reproducible.
 */

#ifndef SIM_EVENT_QUEUE_HH
#define SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "logging.hh"
#include "recycled.hh"
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
 * capacity live inside the event record itself — no heap allocation
 * on the schedule/execute hot path; larger captures spill to the
 * heap transparently.
 */
using EventFn = SmallFn<void(), 56>;

/**
 * A single-owner discrete-event queue.
 *
 * Callbacks are SmallFn thunks; components capture `this` and
 * whatever request state they need. The queue never runs callbacks
 * re-entrantly: schedule() during a callback enqueues for later.
 *
 * Storage is split for speed: the binary heap orders small POD
 * entries (tick, packed priority+sequence, slot index) while the
 * callback itself sits in a slab-recycled slot that never moves
 * during heap sifts. Together with SmallFn's inline capture buffer,
 * scheduling and executing an ordinary event touches no allocator
 * once the slab is warm.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p fn to run at absolute tick @p when.
     * @pre when >= now()
     */
    void
    schedule(Tick when, EventFn fn,
             EventPriority prio = EventPriority::Default)
    {
        panic_if(when < _now, "scheduling event in the past (", when,
                 " < ", _now, ")");
        std::uint32_t slot = _fns.put(std::move(fn));
        // Same-tick order: priority first, then FIFO. Both fold into
        // one 64-bit key (priority in the top bits, a monotonic
        // sequence below), so the heap comparator is two compares.
        _events.push(HeapEntry{
            when,
            (static_cast<std::uint64_t>(prio) << kSeqBits) |
                _nextSeq++,
            slot});
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    void
    scheduleIn(Cycles delay, EventFn fn,
               EventPriority prio = EventPriority::Default)
    {
        schedule(_now + delay, std::move(fn), prio);
    }

    /** Whether any events remain. */
    bool empty() const { return _events.empty(); }

    /** Tick of the earliest pending event; ~Tick{0} when empty. */
    Tick
    nextEventTick() const
    {
        return _events.empty() ? ~Tick{0} : _events.top().when;
    }

    /** Number of pending events. */
    std::size_t pending() const { return _events.size(); }

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
    /** Bits of the order key reserved for the FIFO sequence. */
    static constexpr unsigned kSeqBits = 56;

    struct HeapEntry
    {
        Tick when;
        std::uint64_t key; ///< (priority << kSeqBits) | sequence
        std::uint32_t slot;

        bool
        operator>(const HeapEntry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return key > other.key;
        }
    };

    /** Pop the top entry and take its callback out of the slab. */
    EventFn popTop();

    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<>>
        _events;
    SlotPool<EventFn> _fns;
    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
};

} // namespace nosync

#endif // SIM_EVENT_QUEUE_HH
