#include "noc/mesh.hh"

#include <algorithm>
#include <cstdlib>

#include "trace/trace_sink.hh"

namespace nosync
{

Mesh::Mesh(EventQueue &eq, stats::StatSet &stats,
           const MachineTopology &topo, trace::TraceSink *trace)
    : SimObject("mesh", eq), _topo(topo),
      _flitCrossings(stats.registerVector(
          "noc.flit_crossings", "flit-link crossings by class",
          trafficClassNames())),
      _messages(stats.registerVector("noc.messages",
                                     "messages injected by class",
                                     trafficClassNames())),
      _trace(trace)
{
    // Each node has up to 4 outgoing mesh links (index = node * 4 +
    // dir); behind them sits one inter-device link per ordered device
    // pair (index = numNodes * 4 + srcDev * devices + dstDev).
    std::size_t mesh_links = static_cast<std::size_t>(numNodes()) * 4;
    std::size_t pair_links =
        static_cast<std::size_t>(_topo.devices) * _topo.devices;
    _linkFree.assign(mesh_links + pair_links, 0);
    _linkLatency.assign(mesh_links + pair_links,
                        _topo.mesh.hopLatency);
    _linkFlitCycles.assign(mesh_links + pair_links, 1);
    for (std::size_t l = mesh_links; l < _linkFree.size(); ++l) {
        _linkLatency[l] = _topo.link.latency;
        _linkFlitCycles[l] = _topo.link.cyclesPerFlit;
    }
    buildRouteTable();
}

unsigned
Mesh::hops(NodeId src, NodeId dst) const
{
    return _hopTable[static_cast<std::size_t>(src) * numNodes() +
                     static_cast<std::size_t>(dst)];
}

NodeId
Mesh::nextHop(NodeId at, NodeId dst) const
{
    int w = static_cast<int>(_topo.mesh.width);
    int per_dev = static_cast<int>(_topo.nodesPerDevice());
    int base = (at / per_dev) * per_dev;
    int al = at - base, dl = dst - base;
    int ax = al % w, ay = al / w;
    int dx = dl % w, dy = dl / w;
    // X first, then Y (dimension-ordered, deadlock-free).
    if (ax < dx)
        return at + 1;
    if (ax > dx)
        return at - 1;
    if (ay < dy)
        return at + w;
    return at - w;
}

std::size_t
Mesh::linkIndex(NodeId from, NodeId to) const
{
    int w = static_cast<int>(_topo.mesh.width);
    int dir;
    if (to == from + 1)
        dir = 0; // east
    else if (to == from - 1)
        dir = 1; // west
    else if (to == from + w)
        dir = 2; // south
    else
        dir = 3; // north
    return static_cast<std::size_t>(from) * 4 +
           static_cast<std::size_t>(dir);
}

void
Mesh::appendLocalRoute(NodeId from, NodeId to, unsigned &num_hops)
{
    NodeId at = from;
    while (at != to) {
        NodeId next = nextHop(at, to);
        _routeLinks.push_back(
            static_cast<std::uint16_t>(linkIndex(at, next)));
        at = next;
        ++num_hops;
    }
}

void
Mesh::buildRouteTable()
{
    std::size_t n = numNodes();
    _routeOffset.assign(n * n + 1, 0);
    _hopTable.assign(n * n, 0);
    _routeLinks.clear();
    for (NodeId src = 0; src < static_cast<NodeId>(n); ++src) {
        for (NodeId dst = 0; dst < static_cast<NodeId>(n); ++dst) {
            std::size_t pair =
                static_cast<std::size_t>(src) * n +
                static_cast<std::size_t>(dst);
            _routeOffset[pair] =
                static_cast<std::uint32_t>(_routeLinks.size());
            unsigned num_hops = 0;
            unsigned sd = _topo.deviceOf(src);
            unsigned dd = _topo.deviceOf(dst);
            if (sd == dd) {
                appendLocalRoute(src, dst, num_hops);
            } else {
                // XY to the source gateway, one inter-device link,
                // then XY from the destination gateway.
                appendLocalRoute(src, _topo.gatewayNode(sd), num_hops);
                _routeLinks.push_back(static_cast<std::uint16_t>(
                    n * 4 + sd * _topo.devices + dd));
                ++num_hops;
                appendLocalRoute(_topo.gatewayNode(dd), dst,
                                 num_hops);
            }
            _hopTable[pair] = static_cast<std::uint8_t>(num_hops);
        }
    }
    _routeOffset[n * n] =
        static_cast<std::uint32_t>(_routeLinks.size());
}

void
Mesh::retire(std::uint32_t slot)
{
    InFlightRecord &rec = _records[slot];
    if (_trace) {
        _trace->record(curTick(), trace::Phase::FlitDeliver,
                       rec.msg.dst, 0, 0,
                       static_cast<std::uint16_t>(rec.msg.flits));
    }
    rec.live = false;
    --_liveMsgs;
    _freeRecords.push_back(slot);
}

std::uint32_t
Mesh::track(const InFlightMsg &msg)
{
    std::uint32_t slot;
    if (_freeRecords.empty()) {
        slot = static_cast<std::uint32_t>(_records.size());
        _records.emplace_back();
    } else {
        slot = _freeRecords.back();
        _freeRecords.pop_back();
    }
    InFlightRecord &rec = _records[slot];
    rec.id = _nextMsgId++;
    rec.msg = msg;
    rec.live = true;
    ++_liveMsgs;
    return slot;
}

Mesh::Route
Mesh::reserveRoute(NodeId src, NodeId dst, unsigned flits,
                   TrafficClass cls, bool idempotent)
{
    panic_if(src < 0 || dst < 0 ||
                 static_cast<unsigned>(src) >= numNodes() ||
                 static_cast<unsigned>(dst) >= numNodes(),
             "mesh.send with bad endpoints ", src, " -> ", dst);
    auto cls_idx = static_cast<std::size_t>(cls);
    _messages->add(cls_idx);
    if (_trace) {
        _trace->record(curTick(), trace::Phase::FlitEnqueue, src, 0,
                       0, static_cast<std::uint16_t>(flits));
    }

    unsigned num_hops = 0;
    Tick t;
    if (src == dst) {
        // Local slice access: no link crossings, small fixed delay.
        t = curTick() + _topo.mesh.localLatency;
    } else {
        std::size_t pair = static_cast<std::size_t>(src) * numNodes() +
                           static_cast<std::size_t>(dst);
        num_hops = _hopTable[pair];
        _flitCrossings->add(cls_idx,
                            static_cast<double>(flits) * num_hops);

        // Walk the precomputed route accumulating serialization and
        // queueing delay on every link crossed (mesh links serialize
        // one flit per cycle; inter-device links per their class).
        t = curTick();
        const std::uint16_t *link = &_routeLinks[_routeOffset[pair]];
        for (unsigned h = 0; h < num_hops; ++h, ++link) {
            Tick &free_at = _linkFree[*link];
            Tick start = std::max(t, free_at);
            Tick serialize = static_cast<Tick>(flits) *
                             _linkFlitCycles[*link];
            free_at = start + serialize;
            t = start + serialize + _linkLatency[*link];
        }
    }

    Route route;
    route.arrives = t;
    if (_delivery != nullptr) {
        route.arrives = _delivery->adjust(src, dst, t);
        if (idempotent && _delivery->rollDuplicate()) {
            // Second delivery of the same closure, after the first
            // (adjust() clamps to the pair's latest arrival, so the
            // duplicate never overtakes the original).
            route.duplicate = true;
            route.duplicateArrives = _delivery->adjust(
                src, dst, route.arrives + _delivery->duplicateDelay());
            _messages->add(cls_idx);
            _flitCrossings->add(cls_idx,
                                static_cast<double>(flits) *
                                    num_hops);
        }
    }
    return route;
}

Cycles
Mesh::uncontendedLatency(NodeId src, NodeId dst, unsigned flits) const
{
    if (src == dst)
        return _topo.mesh.localLatency;
    std::size_t pair = static_cast<std::size_t>(src) * numNodes() +
                       static_cast<std::size_t>(dst);
    Cycles total = 0;
    const std::uint16_t *link = &_routeLinks[_routeOffset[pair]];
    for (unsigned h = 0; h < _hopTable[pair]; ++h, ++link) {
        total += _linkLatency[*link] +
                 static_cast<Cycles>(flits) * _linkFlitCycles[*link];
    }
    return total;
}

double
Mesh::flitCrossings(TrafficClass cls) const
{
    return _flitCrossings->value(static_cast<std::size_t>(cls));
}

double
Mesh::totalFlitCrossings() const
{
    return _flitCrossings->total();
}

std::size_t
Mesh::inFlightCount() const
{
    return _liveMsgs;
}

std::vector<InFlightMsg>
Mesh::inFlightSnapshot() const
{
    std::vector<const InFlightRecord *> live;
    for (const auto &rec : _records) {
        if (rec.live)
            live.push_back(&rec);
    }
    std::sort(live.begin(), live.end(),
              [](const InFlightRecord *a, const InFlightRecord *b) {
                  return a->id < b->id;
              });
    std::vector<InFlightMsg> out;
    out.reserve(live.size());
    for (const InFlightRecord *rec : live)
        out.push_back(rec->msg);
    return out;
}

} // namespace nosync
