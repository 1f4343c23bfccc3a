/**
 * @file
 * Recycled storage for the access path: parked records and batch
 * buffers that keep their memory across uses, so that once warm the
 * controllers allocate nothing per access.
 */

#ifndef SIM_RECYCLED_HH
#define SIM_RECYCLED_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "logging.hh"

namespace nosync
{

/**
 * Slab of parked records addressed by a small slot index. An L1
 * parks a sync access (op, scope, callback) here for the whole of an
 * operation that spans several messages and events — drain, perform,
 * finish — so each step's continuation names the same record by
 * {this, slot}. (State that lives for one event belongs in that
 * event's closure instead.) Freed slots are recycled.
 *
 * Records move when the slab grows: never run a parked callable in
 * place — take() it out first.
 */
template <typename T>
class SlotPool
{
  public:
    /** Park @p value; @return its slot. */
    std::uint32_t
    put(T value)
    {
        std::uint32_t slot;
        if (_free.empty()) {
            slot = static_cast<std::uint32_t>(_slots.size());
            _slots.push_back(std::move(value));
        } else {
            slot = _free.back();
            _free.pop_back();
            _slots[slot] = std::move(value);
        }
        return slot;
    }

    /** The record parked in @p slot (valid until the next put()). */
    T &
    operator[](std::uint32_t slot)
    {
        return _slots[slot];
    }

    /** Unpark and return the record in @p slot, freeing the slot. */
    T
    take(std::uint32_t slot)
    {
        panic_if(slot >= _slots.size(), "taking an unknown slot");
        T value = std::move(_slots[slot]);
        _free.push_back(slot);
        return value;
    }

  private:
    std::vector<T> _slots;
    std::vector<std::uint32_t> _free;
};

/**
 * Spare vectors kept for reuse. A controller borrows one for a batch of
 * callbacks or for a new MSHR entry's target list and gives it back
 * when done, so the buffer keeps its capacity instead of being freed
 * and reallocated. borrow() on an empty pool (e.g. a callback in a
 * batch starting a nested batch) returns a fresh vector.
 */
template <typename T>
class VectorPool
{
  public:
    /** Take a spare (empty, with whatever capacity it kept). */
    std::vector<T>
    borrow()
    {
        if (_spares.empty())
            return {};
        std::vector<T> v = std::move(_spares.back());
        _spares.pop_back();
        return v;
    }

    /** Return a vector's buffer for a later borrow(). */
    void
    giveBack(std::vector<T> v)
    {
        if (v.capacity() == 0)
            return;
        v.clear();
        _spares.push_back(std::move(v));
    }

  private:
    std::vector<std::vector<T>> _spares;
};

} // namespace nosync

#endif // SIM_RECYCLED_HH
