#include "event_queue.hh"

#include <bit>

namespace nosync
{

EventQueue::EventQueue() : _wheel(std::make_unique<Bucket[]>(kWheelTicks))
{
}

void
EventQueue::addChunk()
{
    panic_if(_chunks.size() >= (kNil >> kChunkBits),
             "event queue out of node indices");
    auto base = static_cast<std::uint32_t>(_chunks.size()) << kChunkBits;
    _chunks.push_back(std::make_unique<Node[]>(kChunkNodes));
    Node *chunk = _chunks.back().get();
    for (std::uint32_t i = 0; i + 1 < kChunkNodes; ++i)
        chunk[i].next = base + i + 1;
    chunk[kChunkNodes - 1].next = _freeNode;
    _freeNode = base;
}

Tick
EventQueue::nextWheelTick() const
{
    // Scan the bitmap circularly from now's bucket: every bucketed
    // event lies in [now, now + kWheelTicks), so the first set bit is
    // the earliest tick.
    auto start = static_cast<unsigned>(_now & kWheelMask);
    unsigned word = start / 64;
    std::uint64_t bits = _occupied[word] & (~std::uint64_t{0} << (start % 64));
    while (bits == 0) {
        word = (word + 1) % kBitmapWords;
        bits = _occupied[word];
    }
    unsigned bucket = word * 64 + std::countr_zero(bits);
    return _now + ((bucket - start) & kWheelMask);
}

void
EventQueue::advanceTo(Tick when)
{
    _now = when;
    // Far events reach their bucket before anything can run at or
    // schedule directly into their tick, so they stay ahead of every
    // later same-tick, same-priority event: FIFO order is exact.
    while (!_far.empty() && _far.top().when - _now < kWheelTicks) {
        const FarEntry &top = _far.top();
        link(top.when, static_cast<unsigned>(top.key >> kSeqBits),
             top.node);
        _far.pop();
    }
}

void
EventQueue::runAt(Tick when)
{
    if (when != _now)
        advanceTo(when);
    std::size_t b = when & kWheelMask;
    Bucket &bucket = _wheel[b];
    unsigned prio = 0;
    while (bucket[prio].head == kNil)
        ++prio;
    List &list = bucket[prio];
    std::uint32_t idx = list.head;
    Node &n = node(idx);
    list.head = n.next;
    if (list.head == kNil) {
        list.tail = kNil;
        bool drained = true;
        for (const List &other : bucket)
            drained = drained && other.head == kNil;
        if (drained)
            _occupied[b / 64] &= ~(std::uint64_t{1} << (b % 64));
    }
    --_pending;
    ++_executed;
    // Run the callback where it lies: chunks never move, and the node
    // is on no list until it is freed below, so whatever the callback
    // schedules cannot disturb it.
    n.fn();
    n.fn.reset();
    n.next = _freeNode;
    _freeNode = idx;
}

Tick
EventQueue::run(Tick limit)
{
    while (_pending != 0) {
        Tick when = nextEventTick();
        if (when > limit)
            break;
        runAt(when);
    }
    if (_now < limit && _pending != 0)
        advanceTo(limit);
    return _now;
}

bool
EventQueue::step()
{
    if (_pending == 0)
        return false;
    runAt(nextEventTick());
    return true;
}

} // namespace nosync
