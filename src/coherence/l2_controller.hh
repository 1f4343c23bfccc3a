/**
 * @file
 * Abstract L2 bank controller interface.
 *
 * Both bank flavours (GPU writethrough, DeNovo ownership) share the
 * surface the rest of the system needs: a mesh node, a debug word
 * probe, and the hang-diagnostic snapshot / invariant sweep. System
 * exposes banks uniformly through this interface; flavour-specific
 * protocol entry points (handleRegReq, handleWriteThrough, ...) stay
 * on the concrete classes, reached via as<T>() where a caller
 * genuinely needs them.
 */

#ifndef COHERENCE_L2_CONTROLLER_HH
#define COHERENCE_L2_CONTROLLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "coherence/snapshot.hh"
#include "sim/sim_object.hh"
#include "sim/recycled.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace nosync
{

namespace trace
{
class TraceSink;
}

namespace analysis
{
class RaceDetector;
}

struct CacheLine;

/**
 * A bank access continuation, run on the resident line. Sized for the
 * largest handler closure: a writeback or writethrough carrying a
 * line of data plus its ack callback.
 */
using LineFn = SmallFn<void(CacheLine &), 128>;

/** Interface common to both L2 bank flavours. */
class L2Controller : public SimObject
{
  public:
    L2Controller(const std::string &name, EventQueue &eq, NodeId node,
                 trace::TraceSink *trace = nullptr)
        : SimObject(name, eq), _node(node), _trace(trace)
    {}

    NodeId node() const { return _node; }

    /** Debug probe: current value of @p addr at this bank. */
    virtual std::uint32_t peekWord(Addr addr) = 0;

    /** Structured occupancy snapshot for hang diagnostics. */
    virtual ControllerSnapshot snapshot() const = 0;

    /** Protocol invariant sweep; returns violation descriptions. */
    virtual std::vector<std::string>
    checkInvariants(bool quiesced) const = 0;

    /** Attach the happens-before race detector (nullptr = disabled). */
    void setRaceDetector(analysis::RaceDetector *races)
    {
        _races = races;
    }

  protected:
    /**
     * An access waiting out the bank's pipeline latency. The pending
     * event captures only {this, slot}; the continuation stays here.
     */
    struct ParkedAccess
    {
        Addr lineAddr = 0;
        LineFn fn;
    };
    SlotPool<ParkedAccess> _parked;

    NodeId _node;
    /** Observability sink; nullptr when tracing is disabled. */
    trace::TraceSink *_trace = nullptr;
    /** Race detector; nullptr when race checking is disabled. */
    analysis::RaceDetector *_races = nullptr;
};

} // namespace nosync

#endif // COHERENCE_L2_CONTROLLER_HH
