/**
 * @file
 * L2 bank controller: the interface and the shared bank pipeline.
 *
 * Both bank flavours (GPU writethrough, DeNovo ownership) share the
 * surface the rest of the system needs: a mesh node, a debug word
 * probe, the atomic and the written words an L1 sends home, and the
 * hang-diagnostic snapshot / invariant sweep. System exposes banks
 * uniformly through this interface; flavour-specific protocol entry
 * points (handleReadReq, handleRegReq, ...) stay on the concrete
 * classes, reached via as<T>() where a caller genuinely needs them.
 */

#ifndef COHERENCE_L2_CONTROLLER_HH
#define COHERENCE_L2_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "coherence/cache_timings.hh"
#include "coherence/l1_controller.hh"
#include "coherence/snapshot.hh"
#include "mem/cache_array.hh"
#include "mem/mshr.hh"
#include "sim/sim_object.hh"
#include "sim/small_fn.hh"
#include "sim/stats.hh"
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
 * The L2 bank interface, and the half of a bank both flavours share:
 * the pipelined access timing, per-line DRAM fetch MSHRs with the
 * arrival-order stall queue behind them, the DRAM fill (victim,
 * dirty writeback, install, waking the waiters) and the step that
 * performs an atomic at the bank. A flavour supplies (DeNovo) which
 * accesses wait out a recall and which victims must be recalled
 * before a fill.
 */
class L2Controller : public SimObject
{
  public:
    L2Controller(const std::string &name, EventQueue &eq,
                 stats::StatSet &stats, EnergyModel &energy, Mesh &mesh,
                 NodeId node, FunctionalMem &memory,
                 const CacheGeometry &geom,
                 trace::TraceSink *trace = nullptr);

    NodeId node() const { return _node; }

    /** Debug probe: current value of @p addr at this bank. */
    std::uint32_t peekWord(Addr addr);

    /**
     * A sync op an L1 sent home (GD/GH global atomics, DD+SE's sync
     * engine): perform it at this bank and send @p requestor the
     * returned value.
     */
    virtual void handleAtomic(const SyncOp &op, NodeId requestor,
                              ValueCallback reply) = 0;

    /**
     * Words an L1 sent home (L1Controller::writeHome: GPU
     * writethroughs, DeNovo eviction writebacks): merge the words
     * @p mask of @p data by the flavour's rule, then ack
     * @p requestor.
     */
    virtual void handleWrite(Addr line_addr, WordMask mask,
                             const LineData &data, NodeId requestor,
                             DoneCallback ack) = 0;

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

    /**
     * Whether @p victim must be recalled before the fill of
     * @p line_addr installs over it (DeNovo: it holds registered
     * words). If so, start the recall; the fill waits, and the
     * recall's end runs finishFetch again. The GPU bank never
     * recalls.
     */
    virtual bool recallFirst(CacheLine & /*victim*/, Addr /*line_addr*/)
    {
        return false;
    }

    /** The flavour's gauges and detail lines (fetch lines included). */
    virtual void describeProtocol(ControllerSnapshot &snap) const = 0;

    /** Flavour-specific invariant violations, appended to @p out. */
    virtual void checkProtocol(std::vector<std::string> & /*out*/) const
    {}

    // Shared machinery ------------------------------------------------
    /** Run @p fn on the (possibly DRAM-fetched) line after timing. */
    void withLine(Addr line_addr, LineFn fn);

    /**
     * Install the fetched @p line_addr once its DRAM data arrived and
     * no recall blocks the victim, then run its waiters and retry the
     * stalled requests. A no-op until both hold.
     */
    void finishFetch(Addr line_addr);

    /**
     * Perform @p op on its word of the resident @p line and send
     * @p requestor the returned value.
     */
    void performAtomic(CacheLine &line, const SyncOp &op,
                       NodeId requestor, ValueCallback reply);

    /**
     * Register the fill's dram_fetches and dram_writebacks counters,
     * the latter as @p writeback_desc (a DeNovo bank also writes back
     * every recalled line). A flavour calls this after registering
     * its own protocol counters (DeNovo: before engine_syncs): the
     * order of a build's stat names decides where the StatSet's name
     * buffer grows among the build's allocations, and with it glibc's
     * heap layout (DESIGN.md §10, "Heap layout").
     */
    void registerFillStats(stats::StatSet &stats, const char *writeback_desc);

    NodeId _node;
    /** Observability sink; nullptr when tracing is disabled. */
    trace::TraceSink *_trace = nullptr;
    /** Race detector; nullptr when race checking is disabled. */
    analysis::RaceDetector *_races = nullptr;

    Mesh &_mesh;
    EnergyModel &_energy;
    FunctionalMem &_memory;
    CacheArray _array;

    /** Next tick the pipelined bank accepts an access. */
    Tick _bankFree = 0;

    /** Outstanding DRAM fetches, merged per line. */
    struct FetchEntry
    {
        std::vector<LineFn> waiters;
        /** The data arrived; the install may still wait on a recall
         *  of the chosen victim (DeNovo). */
        bool dramDone = false;
    };
    MshrTable<FetchEntry> _fetches;

  private:
    /** withLine after its energy and recall checks; @p queued marks
     *  a retry from the stall queue, which skips the queue. */
    void withLineReady(Addr line_addr, LineFn fn, bool queued = false);

    /** Fetch @p line_addr from DRAM for its just-allocated entry. */
    void startFetch(Addr line_addr);

    /** Retry stalled requests while fetch MSHRs are free. */
    void processStalled();

    /**
     * Requests stalled on a full fetch MSHR, processed strictly in
     * arrival order: the protocols rely on per-source FIFO delivery
     * (DeNovo's writeback/registration races included), so the bank
     * must not reorder stalled requests.
     */
    std::deque<std::pair<Addr, LineFn>> _stalled;

  protected:
    /** Registered after every allocation above (registerFillStats). */
    stats::Handle<stats::Scalar> _reads;
    stats::Handle<stats::Scalar> _dramFetches;
    stats::Handle<stats::Scalar> _dramWritebacks;
};

} // namespace nosync

#endif // COHERENCE_L2_CONTROLLER_HH
