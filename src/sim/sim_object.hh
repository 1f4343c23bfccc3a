/**
 * @file
 * Base class for named simulated components.
 */

#ifndef SIM_SIM_OBJECT_HH
#define SIM_SIM_OBJECT_HH

#include <string>
#include <utility>

#include "event_queue.hh"
#include "types.hh"

namespace nosync
{

/**
 * A named component attached to an event queue.
 *
 * Provides convenience scheduling wrappers so components express
 * latencies as relative delays.
 */
class SimObject
{
  public:
    SimObject(std::string name, EventQueue &eq)
        : _name(std::move(name)), _eq(eq)
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }
    Tick curTick() const { return _eq.now(); }
    EventQueue &eventQueue() { return _eq; }

  protected:
    /** Schedule a member callback @p delay cycles from now. */
    template <typename F>
    void
    scheduleIn(Cycles delay, F &&fn,
               EventPriority prio = EventPriority::Default)
    {
        _eq.scheduleIn(delay, std::forward<F>(fn), prio);
    }

  private:
    std::string _name;
    EventQueue &_eq;
};

/**
 * Downcast a component reached through an interface reference to its
 * concrete type; nullptr when the component is a different flavour.
 * The explicit spelling (`as<DenovoL1Cache>(sys.l1(0))`) marks every
 * place that depends on a specific protocol configuration.
 */
template <typename T>
T *
as(SimObject &obj)
{
    return dynamic_cast<T *>(&obj);
}

template <typename T>
const T *
as(const SimObject &obj)
{
    return dynamic_cast<const T *>(&obj);
}

} // namespace nosync

#endif // SIM_SIM_OBJECT_HH
