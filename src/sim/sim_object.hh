/**
 * @file
 * Base class for every named component of the simulated machine.
 */

#ifndef PERSIM_SIM_SIM_OBJECT_HH
#define PERSIM_SIM_SIM_OBJECT_HH

#include <string>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace persim
{

/**
 * A named component bound to the simulation's event queue.
 *
 * SimObjects are created once at system-build time and live for the whole
 * simulation; they are neither copyable nor movable so that cross-
 * component pointers stay valid.
 */
class SimObject
{
  public:
    /**
     * @param name Hierarchical instance name, e.g. "system.l1[3]".
     * @param eq The (single) event queue driving the simulation.
     */
    SimObject(std::string name, EventQueue &eq)
        : _name(std::move(name)), _eq(eq)
    {
    }

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    /** Hierarchical instance name. */
    const std::string &name() const { return _name; }

    /** Current simulated time. */
    Tick curTick() const { return _eq.now(); }

    /** The event queue this object schedules on. */
    EventQueue &eventQueue() { return _eq; }

  protected:
    /** Schedule a member callback @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&cb)
    {
        _eq.scheduleIn(delay, std::forward<F>(cb));
    }

  private:
    const std::string _name;
    EventQueue &_eq;
};

} // namespace persim

#endif // PERSIM_SIM_SIM_OBJECT_HH
