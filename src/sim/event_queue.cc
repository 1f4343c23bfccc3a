#include "event_queue.hh"

namespace nosync
{

EventFn
EventQueue::popTop()
{
    const HeapEntry &top = _events.top();
    _now = top.when;
    ++_executed;
    // Move the callback out before invoking: running it may schedule
    // new events, which can grow the slab and reuse this slot.
    EventFn fn = _fns.take(top.slot);
    _events.pop();
    return fn;
}

Tick
EventQueue::run(Tick limit)
{
    while (!_events.empty() && _events.top().when <= limit) {
        EventFn fn = popTop();
        fn();
    }
    if (_now < limit && !_events.empty())
        _now = limit;
    return _now;
}

bool
EventQueue::step()
{
    if (_events.empty())
        return false;
    EventFn fn = popTop();
    fn();
    return true;
}

} // namespace nosync
