#include "coherence/l1_controller.hh"

#include "analysis/race_detector.hh"
#include "coherence/l2_controller.hh"
#include "noc/mesh.hh"
#include "sim/logging.hh"
#include "trace/trace_sink.hh"

namespace nosync
{

L1Controller::L1Controller(const std::string &name, EventQueue &eq,
                           stats::StatSet &stats, EnergyModel &energy,
                           Mesh &mesh, NodeId node,
                           const ProtocolConfig &config,
                           const CacheGeometry &geom,
                           trace::TraceSink *trace)
    : SimObject(name, eq), _node(node), _config(config),
      _energy(energy), _stats(stats, name), _trace(trace), _mesh(mesh),
      _array(geom.l1Bytes, geom.l1Assoc), _sb(geom.storeBufferEntries)
{}

// ---------------------------------------------------------------------
// Loads
// ---------------------------------------------------------------------

void
L1Controller::loadMany(std::span<const Addr> addrs,
                       std::span<std::uint32_t> values, WarpBatch &batch)
{
    panic_if(addrs.empty() || addrs.size() != values.size(),
             "loadMany of ", addrs.size(), " addresses into ",
             values.size(), " values");
    batch.remaining = static_cast<unsigned>(addrs.size());
    unsigned hits = 0;
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        if (loadLocal(addrs[i], values[i])) {
            ++_stats.loadHits;
            _energy.l1Access();
            ++hits;
            continue;
        }
        loadMiss(addrs[i], [&batch, dst = &values[i]](std::uint32_t v) {
            *dst = v;
            batch.complete(1);
        });
    }
    replyBatchHits(batch, hits);
}

void
L1Controller::replyBatchHits(WarpBatch &batch, unsigned hits)
{
    // One event stands for every hit: only a batch's last completion
    // has any effect, and this event runs where the last per-word hit
    // reply would have. Words issued after that one missed or stalled.
    // A miss schedules nothing at hit latency. A stall can retire
    // other stalled stores first, but then it replies after them, so
    // the batch is not yet complete when this event runs.
    if (hits != 0)
        scheduleIn(kL1HitLatency, [&batch, hits] { batch.complete(hits); });
}

// ---------------------------------------------------------------------
// Stores
// ---------------------------------------------------------------------

void
L1Controller::storeMany(std::span<const Addr> addrs,
                        std::span<const std::uint32_t> values,
                        WarpBatch &batch)
{
    panic_if(addrs.empty() || addrs.size() != values.size(),
             "storeMany of ", addrs.size(), " addresses with ",
             values.size(), " values");
    batch.remaining = static_cast<unsigned>(addrs.size());
    unsigned hits = 0;
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        if (retireStore(addrs[i], values[i]))
            ++hits;
        else
            stallStore(addrs[i], values[i],
                       [&batch] { batch.complete(1); });
    }
    replyBatchHits(batch, hits);
}

bool
L1Controller::retireStore(Addr addr, std::uint32_t value)
{
    if (storeInPlace(addr, value))
        return true;
    if (!_stalledStores.empty() || (_sb.full() && !_sb.contains(addr)))
        return false;
    acceptStore(addr, value);
    return true;
}

void
L1Controller::stallStore(Addr addr, std::uint32_t value, DoneCallback cb)
{
    _stalledStores.push_back({addr, value, std::move(cb)});
    if (!_overflowDrainActive) {
        _overflowDrainActive = true;
        ++_stats.sbOverflowDrains;
        startDrain([this] {
            _overflowDrainActive = false;
            serviceStallQueue();
        });
    }
}

void
L1Controller::acceptStore(Addr addr, std::uint32_t value)
{
    _energy.l1Access();
    ++_stats.storeBuffered;
    if (_sb.insert(addr, value))
        ++_stats.storeCoalesced;
    mirrorStore(addr, value);
}

void
L1Controller::serviceStallQueue()
{
    while (!_stalledStores.empty()) {
        StalledStore &front = _stalledStores.front();

        // The word may have become storable in place while stalled
        // (a DeNovo registration): no buffer slot needed.
        if (storeInPlace(front.addr, front.value)) {
            scheduleIn(kL1HitLatency, std::move(front.cb));
            _stalledStores.pop_front();
            continue;
        }

        if (_sb.full() && !_sb.contains(front.addr)) {
            // Still no room: drain again and retry later.
            if (!_overflowDrainActive) {
                _overflowDrainActive = true;
                ++_stats.sbOverflowDrains;
                startDrain([this] {
                    _overflowDrainActive = false;
                    scheduleIn(0, [this] { serviceStallQueue(); });
                });
            }
            return;
        }

        StalledStore st = std::move(front);
        _stalledStores.pop_front();
        acceptStore(st.addr, st.value);
        scheduleIn(kL1HitLatency, std::move(st.cb));
    }
}

// ---------------------------------------------------------------------
// Drains (release-side visibility)
// ---------------------------------------------------------------------

void
L1Controller::startDrain(DoneCallback cb)
{
    issueDrain();
    _drainWaiters.push_back(std::move(cb));
    maybeFinishDrains();
}

void
L1Controller::maybeFinishDrains()
{
    if (_pendingWrites != 0 || _drainWaiters.empty())
        return;
    // Run this batch from the spare buffer: waiters that start a new
    // drain queue behind it in _drainWaiters, and neither list gives
    // up its capacity.
    std::vector<DoneCallback> waiters = _drainBatch.borrow();
    waiters.swap(_drainWaiters);
    for (auto &waiter : waiters)
        waiter();
    _drainBatch.giveBack(std::move(waiters));
}

void
L1Controller::drainWrites(Scope scope, DoneCallback cb)
{
    if (_config.effectiveScope(scope) == Scope::Local) {
        // Locally scoped release: nothing to make globally visible
        // (GH), or obtaining ownership is delayed (DH).
        scheduleIn(0, std::move(cb));
        return;
    }
    ++_stats.releaseDrains;
    startDrain(std::move(cb));
}

// ---------------------------------------------------------------------
// Writes sent home
// ---------------------------------------------------------------------

void
L1Controller::writeHome(L2Controller &home, Addr line_addr, WordMask mask,
                        const LineData &data, trace::Phase phase)
{
    if (_trace)
        _trace->record(curTick(), phase, _node, line_addr, 0, mask);
    UnackedLine &unacked = _unacked[line_addr];
    unacked.words |= mask;
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        if (mask & (1u << w)) {
            unacked.value[w] = data[w];
            ++unacked.count[w];
        }
    }
    _mesh.send(_node, home.node(), flitsForWords(popcount(mask)),
               TrafficClass::WriteBack,
               [this, &home, line_addr, mask, data] {
                   home.handleWrite(line_addr, mask, data, _node,
                                    [this, line_addr, mask] {
                                        releaseUnacked(line_addr, mask);
                                        writeAcked(line_addr, mask);
                                    });
               });
}

void
L1Controller::releaseUnacked(Addr line_addr, WordMask mask)
{
    UnackedLine *unacked = _unacked.find(line_addr);
    panic_if(!unacked || (unacked->words & mask) != mask,
             "write ack for words not sent home");
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        if ((mask & (1u << w)) && --unacked->count[w] == 0)
            unacked->words &= static_cast<WordMask>(~(1u << w));
    }
    if (unacked->words == 0)
        _unacked.erase(line_addr);
}

bool
L1Controller::unackedValue(Addr addr, std::uint32_t &value) const
{
    const UnackedLine *unacked = _unacked.find(addr);
    unsigned w = wordInLine(addr);
    if (!unacked || !(unacked->words & (1u << w)))
        return false;
    value = unacked->value[w];
    return true;
}

WordMask
L1Controller::unackedWords(Addr line_addr) const
{
    const UnackedLine *unacked = _unacked.find(line_addr);
    return unacked ? unacked->words : 0;
}

// ---------------------------------------------------------------------
// Synchronization accesses and kernel boundaries
// ---------------------------------------------------------------------

void
L1Controller::sync(const SyncOp &op, ValueCallback cb)
{
    Scope scope = _config.effectiveScope(op.scope);
    std::uint32_t slot = _syncs.put({op, scope, std::move(cb)});

    // Device- and machine-scoped releases both make prior writes
    // visible beyond this CU's L1, so both drain.
    if (op.isRelease() && scope != Scope::Local) {
        ++_stats.releaseDrains;
        startDrain([this, slot] { performSync(slot); });
    } else {
        performSync(slot);
    }
}

void
L1Controller::finishSync(std::uint32_t slot, std::uint32_t value)
{
    SyncRecord rec = _syncs.take(slot);
    if (rec.op.isAcquire() && rec.scope != Scope::Local)
        selfInvalidate();
    rec.cb(value);
}

AtomicResult
L1Controller::performAtL1(std::uint32_t slot, std::uint32_t old_value,
                          bool reply)
{
    const SyncOp &op = _syncs[slot].op;
    _energy.l1Access();
    _energy.atomicAlu();
    if (_races)
        _races->syncPerformed(op, curTick());
    AtomicResult res = applyAtomic(op, old_value);
    if (reply) {
        scheduleIn(kL1AtomicLatency, [this, slot, v = res.returned] {
            finishSync(slot, v);
        });
    }
    return res;
}

void
L1Controller::performAtHome(std::uint32_t slot, L2Controller &home)
{
    ++_stats.syncMisses;
    _energy.atomicAlu();
    const SyncOp &op = _syncs[slot].op;
    _mesh.send(_node, home.node(), flitsForWords(1), TrafficClass::Atomic,
               [this, &home, op, slot] {
                   home.handleAtomic(op, _node,
                                     [this, slot](std::uint32_t v) {
                                         finishSync(slot, v);
                                     });
               });
}

void
L1Controller::selfInvalidate()
{
    ++_stats.acquireInvalidations;
    _energy.l1TagAccess();
    ++_curEpoch;
}

void
L1Controller::kernelBegin()
{
    selfInvalidate();
}

void
L1Controller::kernelEnd(DoneCallback cb)
{
    ++_stats.releaseDrains;
    startDrain(std::move(cb));
}

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

ControllerSnapshot
L1Controller::snapshot() const
{
    ControllerSnapshot snap;
    snap.name = name();
    snap.gauge("mshr", mshrOccupancy());
    snap.gauge("sb", _sb.size());
    describeProtocol(snap);
    std::size_t unacked_words = 0;
    _unacked.forEachSorted([&](Addr line_addr, const UnackedLine &unacked) {
        unacked_words += popcount(unacked.words);
        std::ostringstream os;
        os << "unacked line 0x" << std::hex << line_addr << " words=0x"
           << unacked.words;
        snap.detail.push_back(os.str());
    });
    snap.gauge("unacked_words", unacked_words);
    snap.gauge("stalled_stores", _stalledStores.size());
    snap.gauge("drain_waiters", _drainWaiters.size());
    return snap;
}

std::vector<std::string>
L1Controller::checkInvariants(bool quiesced) const
{
    std::vector<std::string> out;
    checkProtocol(out);
    _unacked.forEachSorted([&](Addr line_addr, const UnackedLine &unacked) {
        std::ostringstream os;
        os << name() << ": unacked line 0x" << std::hex << line_addr
           << std::dec;
        if (unacked.words == 0)
            out.push_back(os.str() + " with no unacked words");
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            bool listed = unacked.words & (1u << w);
            if (listed != (unacked.count[w] != 0)) {
                out.push_back(os.str() + " word " + std::to_string(w) +
                              ": listed " + std::to_string(listed) +
                              " with count " +
                              std::to_string(unacked.count[w]));
            }
        }
    });
    if (quiesced) {
        ControllerSnapshot snap = snapshot();
        if (!snap.quiescent()) {
            out.push_back(name() + ": state leaked at quiesce: " +
                          snap.summary());
        }
    }
    return out;
}

} // namespace nosync
