/**
 * @file
 * L2 bank controller: the interface and the shared bank pipeline.
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
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "coherence/cache_timings.hh"
#include "coherence/snapshot.hh"
#include "mem/cache_array.hh"
#include "mem/mshr.hh"
#include "sim/sim_object.hh"
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

class EnergyModel;
class FunctionalMem;
class Mesh;

/**
 * A bank access continuation, run on the resident line. Sized for the
 * largest handler closure: a writeback or writethrough carrying a
 * line of data plus its ack callback. An access waiting out the bank
 * latency is an event holding {this, line, LineFn}, which EventFn
 * holds inline.
 */
using LineFn = SmallFn<void(CacheLine &), 128>;

/**
 * The L2 bank interface, and the bank pipeline both flavours share:
 * the pipelined access timing, per-line DRAM fetch MSHRs and the
 * arrival-order stall queue behind them. A flavour supplies how a
 * fetch completes and (DeNovo) which accesses wait out a recall.
 */
class L2Controller : public SimObject
{
  public:
    L2Controller(const std::string &name, EventQueue &eq,
                 EnergyModel &energy, Mesh &mesh, NodeId node,
                 FunctionalMem &memory, const CacheGeometry &geom,
                 const CacheTimings &timings,
                 trace::TraceSink *trace = nullptr);

    NodeId node() const { return _node; }

    /** Debug probe: current value of @p addr at this bank. */
    std::uint32_t peekWord(Addr addr);

    /**
     * Structured occupancy snapshot for hang diagnostics. Gauges, in
     * order: fetches, stalled, the flavour's gauges.
     */
    ControllerSnapshot snapshot() const;

    /**
     * Bank invariant sweep: no fetch MSHR without waiters, plus the
     * flavour's checks; @p quiesced additionally requires every gauge
     * at zero. @return violation descriptions; empty when clean.
     */
    std::vector<std::string> checkInvariants(bool quiesced) const;

    /** Attach the happens-before race detector (nullptr = disabled). */
    void setRaceDetector(analysis::RaceDetector *races)
    {
        _races = races;
    }

  protected:
    // Flavour hooks ---------------------------------------------------
    /**
     * Whether @p line_addr is being recalled; if so, park @p fn until
     * the recall ends (DeNovo). The GPU bank never recalls.
     */
    virtual bool
    deferWhileRecalling(Addr /*line_addr*/, LineFn & /*fn*/)
    {
        return false;
    }

    /** Fetch @p line_addr from DRAM for its just-allocated entry. */
    virtual void startFetch(Addr line_addr) = 0;

    /** The flavour's gauges and detail lines (fetch lines included). */
    virtual void describeProtocol(ControllerSnapshot &snap) const = 0;

    /** Flavour-specific invariant violations, appended to @p out. */
    virtual void checkProtocol(std::vector<std::string> & /*out*/) const
    {}

    // Bank pipeline ---------------------------------------------------
    /** Run @p fn on the (possibly DRAM-fetched) line after timing. */
    void withLine(Addr line_addr, LineFn fn);

    /** withLine after its energy and recall checks; @p queued marks
     *  a retry from the stall queue. */
    void withLineReady(Addr line_addr, LineFn fn, bool queued = false);

    /** Retry stalled requests while fetch MSHRs are free. */
    void processStalled();

    NodeId _node;
    /** Observability sink; nullptr when tracing is disabled. */
    trace::TraceSink *_trace = nullptr;
    /** Race detector; nullptr when race checking is disabled. */
    analysis::RaceDetector *_races = nullptr;

    Mesh &_mesh;
    EnergyModel &_energy;
    FunctionalMem &_memory;
    CacheArray _array;
    CacheTimings _timings;

    /** Next tick the pipelined bank accepts an access. */
    Tick _bankFree = 0;

    /** Outstanding DRAM fetches, merged per line. */
    struct FetchEntry
    {
        std::vector<LineFn> waiters;
        /** DeNovo: the data arrived but the install waits on a
         *  recall of the chosen victim. */
        bool dramDone = false;
    };
    MshrTable<FetchEntry> _fetches;

    /**
     * Requests stalled on a full fetch MSHR, processed strictly in
     * arrival order: the protocols rely on per-source FIFO delivery
     * (DeNovo's writeback/registration races included), so the bank
     * must not reorder stalled requests.
     */
    std::deque<std::pair<Addr, LineFn>> _stalled;
};

} // namespace nosync

#endif // COHERENCE_L2_CONTROLLER_HH
