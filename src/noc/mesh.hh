/**
 * @file
 * Machine interconnect model (Garnet-inspired): a forest of WxH
 * meshes — one per device — joined by inter-device gateway links.
 *
 * Within a device: dimension-ordered (XY) routing over its grid.
 * Across devices: XY to the source device's gateway node, one
 * inter-device link (fully connected device pairs, each with its own
 * latency and flit-serialization class), then XY from the destination
 * gateway. Each unidirectional link carries one flit per
 * `cyclesPerFlit` cycles (mesh links: 1); a message serializes onto
 * every link it crosses and inherits queueing delay when links are
 * busy, which captures the bursty-writethrough contention that the
 * paper's GPU-coherence discussion hinges on. Flit crossings
 * (flits x links) are accounted per traffic class. A one-device
 * machine takes exactly the classic single-mesh paths, cycle for
 * cycle.
 *
 * Delivery is closure-based: the sender provides the action to run at
 * the destination when the message arrives, keeping the network
 * independent of protocol message formats. The closure keeps its
 * concrete type all the way into the delivery event, which runs it in
 * place. That seam also hosts the optional DeliveryPolicy
 * (FaultInjector chaos perturbation or the model checker's
 * ExploringPolicy) and an in-flight message registry consumed by hang
 * diagnostics.
 */

#ifndef NOC_MESH_HH
#define NOC_MESH_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "noc/delivery_policy.hh"
#include "noc/topology.hh"
#include "noc/traffic.hh"
#include "sim/event_queue.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace nosync
{

namespace trace
{
class TraceSink;
}

/** A message injected but not yet delivered (diagnostics). */
struct InFlightMsg
{
    NodeId src = kNoNode;
    NodeId dst = kNoNode;
    TrafficClass cls = TrafficClass::Read;
    unsigned flits = 0;
    Tick sent = 0;
    Tick arrives = 0;
    bool duplicate = false;
};

/** Device forest with XY routing and per-link serialization. */
class Mesh : public SimObject
{
  public:
    Mesh(EventQueue &eq, stats::StatSet &stats,
         const MachineTopology &topo = MachineTopology{},
         trace::TraceSink *trace = nullptr);

    unsigned numNodes() const { return _topo.numNodes(); }

    /** The topology this fabric was built from. */
    const MachineTopology &topology() const { return _topo; }

    /** Links crossed between two nodes (inter-device link = 1). */
    unsigned hops(NodeId src, NodeId dst) const;

    /**
     * Send a message of @p flits flits from @p src to @p dst; @p
     * deliver runs at the destination's arrival tick. A sender marks
     * the message @p idempotent when delivering it twice is
     * harmless (pure requests whose responses are deduplicated by
     * the receiver); only such messages may be duplicated by an
     * attached fault injector. Duplication copies the closure, so
     * every closure sent must be copyable (checked at compile time).
     */
    template <typename Fn>
    void
    send(NodeId src, NodeId dst, unsigned flits, TrafficClass cls,
         Fn &&deliver, bool idempotent = false)
    {
        Route route = reserveRoute(src, dst, flits, cls, idempotent);
        if (route.duplicate) {
            // The duplicate's record and event come first, as its
            // arrival was drawn first.
            scheduleDelivery(InFlightMsg{src, dst, cls, flits, curTick(),
                                         route.duplicateArrives, true},
                             deliver);
        }
        scheduleDelivery(InFlightMsg{src, dst, cls, flits, curTick(),
                                     route.arrives, false},
                         std::forward<Fn>(deliver));
    }

    /**
     * Best-case (uncontended) one-way latency between two nodes for a
     * message of @p flits flits. Used by tests and latency tables.
     */
    Cycles uncontendedLatency(NodeId src, NodeId dst,
                              unsigned flits) const;

    /** Total flit crossings in @p cls so far. */
    double flitCrossings(TrafficClass cls) const;

    /** Total flit crossings across all classes. */
    double totalFlitCrossings() const;

    // Delivery policy -------------------------------------------------
    /**
     * Attach (or detach, with nullptr) a delivery policy: the
     * chaos-testing FaultInjector or the model checker's
     * ExploringPolicy. At most one policy is active per mesh.
     */
    void setDeliveryPolicy(DeliveryPolicy *policy)
    {
        _delivery = policy;
    }

    // Diagnostics -----------------------------------------------------
    /** Messages injected but not yet delivered, in injection order. */
    std::vector<InFlightMsg> inFlightSnapshot() const;

    /** Number of messages injected but not yet delivered. */
    std::size_t inFlightCount() const;

  private:
    /** Arrival ticks of one message (and of its duplicate). */
    struct Route
    {
        Tick arrives = 0;
        bool duplicate = false;
        Tick duplicateArrives = 0;
    };

    /**
     * Check the endpoints, count and trace the message, reserve every
     * link on its route and apply the delivery policy (which may add
     * a duplicate). Everything in send() that does not depend on the
     * closure's type.
     */
    Route reserveRoute(NodeId src, NodeId dst, unsigned flits,
                       TrafficClass cls, bool idempotent);

    /**
     * Register @p msg in flight and schedule @p deliver at its
     * arrival tick. The event captures the closure itself, so the
     * closure is built into the event node once and runs there.
     */
    template <typename Fn>
    void
    scheduleDelivery(const InFlightMsg &msg, Fn &&deliver)
    {
        std::uint32_t slot = track(msg);
        auto event = [this, slot,
                      fn = std::forward<Fn>(deliver)]() mutable {
            retire(slot);
            fn();
        };
        static_assert(EventFn::fitsInline<decltype(event)>(),
                      "a mesh delivery closure outgrew EventFn's "
                      "inline buffer");
        eventQueue().schedule(msg.arrives, std::move(event),
                              EventPriority::NetworkDelivery);
    }

    /** Add @p msg to the in-flight registry; @return its slot. */
    std::uint32_t track(const InFlightMsg &msg);

    /** Trace the delivery of the record in @p slot and free it. */
    void retire(std::uint32_t slot);

    /** Fill the per-pair route/hop tables in one pass (ctor
     *  helper). */
    void buildRouteTable();

    MachineTopology _topo;
    /** Earliest tick each unidirectional link is free. */
    std::vector<Tick> _linkFree;
    /** Per-link traversal latency: hopLatency on mesh links, the
     *  link class latency on inter-device links. */
    std::vector<Cycles> _linkLatency;
    /** Per-link flit serialization: 1 cycle/flit on mesh links, the
     *  link class cyclesPerFlit on inter-device links. */
    std::vector<Cycles> _linkFlitCycles;
    DeliveryPolicy *_delivery = nullptr;

    /**
     * Precomputed XY routes: for each (src, dst) pair, the link
     * indices the message crosses, flattened into one exactly sized
     * array with a per-pair offset. hops(src, dst) is the segment
     * length.
     */
    std::unique_ptr<std::uint16_t[]> _routeLinks;
    std::vector<std::uint32_t> _routeOffset; ///< src * numNodes + dst
    std::vector<std::uint8_t> _hopTable;

    /**
     * In-flight registry: slab-recycled records so steady-state
     * message traffic performs no allocation. A record holds only
     * diagnostics; the delivery closure lives in the scheduled event.
     * Records keep their monotonic id for injection-order
     * diagnostics.
     */
    struct InFlightRecord
    {
        std::uint64_t id = 0;
        InFlightMsg msg;
        bool live = false;
    };

    std::vector<InFlightRecord> _records;
    std::vector<std::uint32_t> _freeRecords;
    std::size_t _liveMsgs = 0;
    std::uint64_t _nextMsgId = 0;

    stats::Handle<stats::Vector> _flitCrossings;
    stats::Handle<stats::Vector> _messages;
    /** Observability sink; nullptr when tracing is disabled. */
    trace::TraceSink *_trace = nullptr;
};

} // namespace nosync

#endif // NOC_MESH_HH
