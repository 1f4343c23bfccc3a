#include "coherence/l2_controller.hh"

#include <algorithm>

#include "energy/energy_model.hh"
#include "mem/functional_mem.hh"

namespace nosync
{

L2Controller::L2Controller(const std::string &name, EventQueue &eq,
                           EnergyModel &energy, Mesh &mesh, NodeId node,
                           FunctionalMem &memory,
                           const CacheGeometry &geom,
                           const CacheTimings &timings,
                           trace::TraceSink *trace)
    : SimObject(name, eq), _node(node), _trace(trace), _mesh(mesh),
      _energy(energy), _memory(memory),
      _array(geom.l2BankBytes, geom.l2Assoc), _timings(timings),
      _fetches(geom.l2MshrEntries)
{}

std::uint32_t
L2Controller::peekWord(Addr addr)
{
    if (CacheLine *line = _array.lookup(lineAlign(addr)))
        return line->data[wordInLine(addr)];
    return _memory.readWord(addr);
}

void
L2Controller::withLine(Addr line_addr, LineFn fn)
{
    line_addr = lineAlign(line_addr);
    _energy.l2Access();
    if (deferWhileRecalling(line_addr, fn))
        return;
    withLineReady(line_addr, std::move(fn));
}

void
L2Controller::withLineReady(Addr line_addr, LineFn fn, bool queued)
{
    // Pipelined bank: one new access per l2CycleTime cycles.
    Tick start = std::max(curTick(), _bankFree);
    _bankFree = start + _timings.l2CycleTime;
    Cycles queue_delay = start - curTick();

    if (CacheLine *line = _array.lookup(line_addr)) {
        _array.touch(*line);
        // Re-resolve at fire time: a concurrent fetch may evict and
        // repurpose this frame, or a recall may start, during the
        // access latency window.
        auto access = [this, line_addr, fn = std::move(fn)]() mutable {
            if (deferWhileRecalling(line_addr, fn))
                return;
            if (CacheLine *line = _array.lookup(line_addr)) {
                fn(*line);
                return;
            }
            withLineReady(line_addr, std::move(fn));
        };
        static_assert(EventFn::fitsInline<decltype(access)>(),
                      "an L2 bank access outgrew EventFn's inline "
                      "buffer");
        scheduleIn(queue_delay + _timings.l2Access, std::move(access));
        return;
    }

    if (FetchEntry *entry = _fetches.find(line_addr)) {
        entry->waiters.push_back(std::move(fn));
        return;
    }

    if ((!queued && !_stalled.empty()) || _fetches.full()) {
        if (queued) {
            // Re-stall at the head to preserve arrival order.
            _stalled.emplace_front(line_addr, std::move(fn));
            return;
        }
        // All fetch MSHRs busy: stall in strict arrival order.
        _stalled.emplace_back(line_addr, std::move(fn));
        return;
    }

    FetchEntry &entry = _fetches.allocate(line_addr);
    entry.waiters.push_back(std::move(fn));
    startFetch(line_addr);
}

ControllerSnapshot
L2Controller::snapshot() const
{
    ControllerSnapshot snap;
    snap.name = name();
    snap.gauge("fetches", _fetches.size());
    snap.gauge("stalled", _stalled.size());
    describeProtocol(snap);
    return snap;
}

std::vector<std::string>
L2Controller::checkInvariants(bool quiesced) const
{
    std::vector<std::string> out;
    _fetches.forEach([&](Addr line_addr, const FetchEntry &entry) {
        if (entry.waiters.empty()) {
            std::ostringstream os;
            os << name() << ": DRAM fetch of line 0x" << std::hex
               << line_addr << " with no waiters";
            out.push_back(os.str());
        }
    });
    checkProtocol(out);
    if (quiesced) {
        ControllerSnapshot snap = snapshot();
        if (!snap.quiescent()) {
            out.push_back(name() + ": state leaked at quiesce: " +
                          snap.summary());
        }
    }
    return out;
}

void
L2Controller::processStalled()
{
    while (!_stalled.empty() && !_fetches.full()) {
        auto [line_addr, fn] = std::move(_stalled.front());
        _stalled.pop_front();
        withLineReady(line_addr, std::move(fn), true);
    }
}

} // namespace nosync
