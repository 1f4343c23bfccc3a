#include "noc/mesh.hh"

#include <algorithm>
#include <cstdlib>
#include <memory>

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

namespace
{

/**
 * Write the link indices of the intra-device XY route from local
 * (x0, y0) to local (x1, y1), starting at global node @p node, into
 * @p out; @return one past the last link written. Link index is
 * node * 4 + direction (0 east, 1 west, 2 south, 3 north).
 */
std::uint16_t *
writeLocalRoute(std::uint16_t *out, unsigned node, int x0, int y0,
                int x1, int y1, unsigned width)
{
    // X first, then Y (dimension-ordered, deadlock-free).
    for (; x0 < x1; ++x0, ++node)
        *out++ = static_cast<std::uint16_t>(node * 4 + 0);
    for (; x0 > x1; --x0, --node)
        *out++ = static_cast<std::uint16_t>(node * 4 + 1);
    for (; y0 < y1; ++y0, node += width)
        *out++ = static_cast<std::uint16_t>(node * 4 + 2);
    for (; y0 > y1; --y0, node -= width)
        *out++ = static_cast<std::uint16_t>(node * 4 + 3);
    return out;
}

} // namespace

void
Mesh::buildRouteTable()
{
    const unsigned n = numNodes();
    const unsigned w = _topo.mesh.width;
    const unsigned h = _topo.mesh.height;
    const unsigned per_dev = _topo.nodesPerDevice();
    const unsigned devices = _topo.devices;
    const unsigned gw = per_dev - 1; // local id of every gateway

    // Local coordinates of one device's nodes (devices share them).
    std::vector<int> xs(per_dev), ys(per_dev);
    for (unsigned l = 0; l < per_dev; ++l) {
        xs[l] = static_cast<int>(l % w);
        ys[l] = static_cast<int>(l / w);
    }
    auto leg = [&](unsigned a, unsigned b) {
        return static_cast<unsigned>(std::abs(xs[a] - xs[b]) +
                                     std::abs(ys[a] - ys[b]));
    };

    // Links over all routes, in closed form, so the table is sized
    // once: the XY routes inside one device cross
    // h^2 (w^3 - w) / 3 + w^2 (h^3 - h) / 3 links, and each route
    // between two devices takes the legs to and from the gateways
    // plus the device pair's link.
    std::size_t gw_legs = 0;
    for (unsigned l = 0; l < per_dev; ++l)
        gw_legs += leg(l, gw);
    std::size_t local_links =
        static_cast<std::size_t>(h) * h * (w * w * w - w) / 3 +
        static_cast<std::size_t>(w) * w * (h * h * h - h) / 3;
    std::size_t remote_links =
        2 * static_cast<std::size_t>(per_dev) * gw_legs +
        static_cast<std::size_t>(per_dev) * per_dev;
    std::size_t total = devices * local_links +
                        static_cast<std::size_t>(devices) *
                            (devices - 1) * remote_links;

    _routeLinks = std::make_unique_for_overwrite<std::uint16_t[]>(total);
    _routeOffset.resize(static_cast<std::size_t>(n) * n + 1);
    _hopTable.resize(static_cast<std::size_t>(n) * n);
    std::uint16_t *const first = _routeLinks.get();
    std::uint16_t *out = first;
    std::size_t pair = 0;
    for (unsigned sd = 0; sd < devices; ++sd) {
        for (unsigned sl = 0; sl < per_dev; ++sl) {
            unsigned src = sd * per_dev + sl;
            for (unsigned dd = 0; dd < devices; ++dd) {
                for (unsigned dl = 0; dl < per_dev; ++dl, ++pair) {
                    std::uint16_t *begin = out;
                    _routeOffset[pair] =
                        static_cast<std::uint32_t>(begin - first);
                    if (sd == dd) {
                        out = writeLocalRoute(out, src, xs[sl], ys[sl],
                                              xs[dl], ys[dl], w);
                    } else {
                        // XY to the source gateway, one inter-device
                        // link, then XY from the destination gateway.
                        out = writeLocalRoute(out, src, xs[sl], ys[sl],
                                              xs[gw], ys[gw], w);
                        *out++ = static_cast<std::uint16_t>(
                            n * 4 + sd * devices + dd);
                        out = writeLocalRoute(out, dd * per_dev + gw,
                                              xs[gw], ys[gw], xs[dl],
                                              ys[dl], w);
                    }
                    _hopTable[pair] =
                        static_cast<std::uint8_t>(out - begin);
                }
            }
        }
    }
    panic_if(static_cast<std::size_t>(out - first) != total,
             "mesh route table holds ", out - first, " links, expected ",
             total);
    _routeOffset[pair] = static_cast<std::uint32_t>(total);
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
        t = curTick() + kLocalLatency;
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
        return kLocalLatency;
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
