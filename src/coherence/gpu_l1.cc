#include "coherence/gpu_l1.hh"

#include "trace/trace_sink.hh"

namespace nosync
{

GpuL1Cache::GpuL1Cache(const std::string &name, EventQueue &eq,
                       stats::StatSet &stats, EnergyModel &energy,
                       Mesh &mesh, NodeId node,
                       const ProtocolConfig &config,
                       std::vector<GpuL2Bank *> banks,
                       const CacheGeometry &geom,
                       trace::TraceSink *trace)
    : L1Controller(name, eq, stats, energy, mesh, node, config, geom,
                   trace),
      _banks(std::move(banks)), _mshr(geom.l1MshrEntries)
{
    panic_if(_config.protocol() != CoherenceProtocol::Gpu,
             "GpuL1Cache built with a non-GPU protocol config");
}

bool
GpuL1Cache::bufferedValue(Addr addr, std::uint32_t &value) const
{
    if (_sb.contains(addr)) {
        value = _sb.value(addr);
        return true;
    }
    return unackedValue(addr, value);
}

GpuL2Bank &
GpuL1Cache::homeBank(Addr addr)
{
    return *_banks[lineHome(addr, _banks.size())];
}

// ---------------------------------------------------------------------
// Loads
// ---------------------------------------------------------------------

bool
GpuL1Cache::loadLocal(Addr addr, std::uint32_t &value)
{
    // Store-buffer forwarding: the SB holds the CU's freshest
    // values.
    if (_sb.contains(addr)) {
        value = _sb.value(addr);
        return true;
    }

    unsigned w = wordInLine(addr);
    if (CacheLine *line = _array.lookup(addr)) {
        refreshLine(*line);
        if (line->valid && line->wstate[w] == WordState::Valid) {
            _array.touch(*line);
            value = line->data[w];
            return true;
        }
    }

    // Unacked writethrough: the word left the SB (and possibly the
    // cache, on eviction) but has not merged at the L2 yet. Fills
    // never install over such words, so any valid frame copy checked
    // above is at least as fresh.
    return unackedValue(addr, value);
}

void
GpuL1Cache::loadMiss(Addr addr, ValueCallback cb)
{
    ++_stats.loadMisses;
    _energy.l1TagAccess();
    Addr line_addr = lineAlign(addr);
    ReadEntry &entry = entryFor(line_addr);
    entry.targets.push_back({addr, std::move(cb), _curEpoch});
    if (!entry.requestOutstanding) {
        entry.requestOutstanding = true;
        issueRead(line_addr);
    }
}

GpuL1Cache::ReadEntry &
GpuL1Cache::entryFor(Addr line_addr)
{
    if (ReadEntry *entry = _mshr.find(line_addr))
        return *entry;
    ReadEntry &entry = _mshr.allocate(line_addr);
    entry.targets = _targetPool.borrow();
    return entry;
}

void
GpuL1Cache::issueRead(Addr line_addr)
{
    if (_trace) {
        _trace->record(curTick(), trace::Phase::L1MissIssue, _node,
                       line_addr);
    }
    GpuL2Bank &bank = homeBank(line_addr);
    std::uint64_t sent_epoch = _curEpoch;
    // Read requests are idempotent: a duplicated delivery only
    // produces a second fill, which onFill drops as spurious. The
    // flag lets the fault injector exercise exactly that path.
    _mesh.send(_node, bank.node(), kControlFlits, TrafficClass::Read,
               [this, line_addr, sent_epoch, &bank] {
                   bank.handleReadReq(
                       line_addr, _node,
                       [this, line_addr,
                        sent_epoch](const LineData &data) {
                           onFill(line_addr, data, sent_epoch);
                       });
               },
               /*idempotent=*/true);
}

CacheLine &
GpuL1Cache::installFill(Addr line_addr, const LineData &data)
{
    // The line may still be resident (HRF keeps locally dirty words
    // across acquires): merge the fill into the existing frame, never
    // overwriting this CU's own newer dirty words.
    if (CacheLine *line = _array.lookup(line_addr)) {
        refreshLine(*line);
        if (line->valid) {
            for (unsigned w = 0; w < kWordsPerLine; ++w) {
                WordMask bit = static_cast<WordMask>(1u << w);
                if (line->dirty & bit)
                    continue;
                // Buffered stores and in-flight writethroughs are
                // newer than the fill: leave those words invalid so
                // later loads refetch (FIFO makes the refetch fresh).
                Addr waddr = line_addr + w * kWordBytes;
                std::uint32_t fresh;
                if (bufferedValue(waddr, fresh)) {
                    line->wstate[w] = WordState::Invalid;
                    continue;
                }
                line->data[w] = data[w];
                line->wstate[w] = WordState::Valid;
            }
            line->epoch = _curEpoch;
            _array.touch(*line);
            _energy.l1Access();
            return *line;
        }
    }

    CacheLine *victim = _array.findVictim(line_addr);
    if (victim->valid)
        evictFrame(*victim);
    _array.install(*victim, line_addr);
    victim->data = data;
    victim->wstate.fill(WordState::Valid);
    victim->epoch = _curEpoch;
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        // Buffered stores and in-flight writethroughs are newer than
        // the fill: leave those words invalid.
        Addr waddr = line_addr + w * kWordBytes;
        std::uint32_t fresh;
        if (bufferedValue(waddr, fresh))
            victim->wstate[w] = WordState::Invalid;
    }
    _energy.l1Access();
    return *victim;
}

void
GpuL1Cache::evictFrame(CacheLine &victim)
{
    ++_stats.evictions;
    if (victim.dirty != 0) {
        ++_pendingWrites;
        writeHome(homeBank(victim.addr), victim.addr, victim.dirty,
                  victim.data, trace::Phase::L1WriteThrough);
    }
}

void
GpuL1Cache::onFill(Addr line_addr, const LineData &data,
                   std::uint64_t sent_epoch)
{
    ReadEntry *entry = _mshr.find(line_addr);
    if (!entry) {
        // Spurious fill: a duplicated read request (fault injection)
        // produced a second reply after the first retired the entry.
        return;
    }
    entry->requestOutstanding = false;

    if (sent_epoch == _curEpoch) {
        // No acquire intervened: install and satisfy everyone.
        CacheLine &line = installFill(line_addr, data);
        // Snapshot before running callbacks: a resumed coroutine may
        // evict or rewrite the frame.
        LineData snapshot = line.data;
        auto targets = std::move(entry->targets);
        auto atomics = std::move(entry->atomicTargets);
        _mshr.deallocate(line_addr);
        for (auto &target : targets)
            target.cb(snapshot[wordInLine(target.addr)]);
        _targetPool.giveBack(std::move(targets));
        for (std::uint32_t slot : atomics)
            performLocalAtomic(slot);
        return;
    }

    // An acquire intervened: the data may only satisfy loads issued
    // at or before the request's epoch; newer loads re-fetch so they
    // cannot observe values older than their acquire. Collect first:
    // the callbacks may push new loads into this entry.
    std::vector<ReadTarget> ready = _targetPool.borrow();
    auto &targets = entry->targets;
    for (auto it = targets.begin(); it != targets.end();) {
        if (it->epoch <= sent_epoch) {
            ready.push_back(std::move(*it));
            it = targets.erase(it);
        } else {
            ++it;
        }
    }
    for (auto &target : ready)
        target.cb(data[wordInLine(target.addr)]);
    _targetPool.giveBack(std::move(ready));

    entry = _mshr.find(line_addr);
    if (!entry)
        return;
    if (entry->targets.empty() && entry->atomicTargets.empty()) {
        _targetPool.giveBack(std::move(entry->targets));
        _mshr.deallocate(line_addr);
        return;
    }
    if (!entry->requestOutstanding) {
        entry->requestOutstanding = true;
        issueRead(line_addr);
    }
}

// ---------------------------------------------------------------------
// Stores
// ---------------------------------------------------------------------

bool
GpuL1Cache::storeInPlace(Addr addr, std::uint32_t value)
{
    if (_config.consistency() != ConsistencyModel::Hrf)
        return false;
    // GPU-H keeps a dirty bit per word in the L1 (the paper's 3%
    // overhead): stores write-allocate into the cache and retire
    // immediately; a global release scans and flushes dirty words, so
    // the store buffer never backs up.
    ++_stats.storeHits;
    _energy.l1Access();
    CacheLine *line = _array.lookup(addr);
    if (line) {
        refreshLine(*line);
        if (!line->valid)
            line = nullptr;
    }
    if (!line) {
        // Allocate without fetching: only this word becomes valid
        // (partial-block write).
        CacheLine *victim = _array.findVictim(addr);
        if (victim->valid)
            evictFrame(*victim);
        _array.install(*victim, lineAlign(addr));
        victim->epoch = _curEpoch;
        line = victim;
    }
    unsigned w = wordInLine(addr);
    line->data[w] = value;
    line->wstate[w] = WordState::Valid;
    line->dirty |= static_cast<WordMask>(1u << w);
    _anyDirty = true;
    _array.touch(*line);
    return true;
}

void
GpuL1Cache::mirrorStore(Addr addr, std::uint32_t value)
{
    if (CacheLine *line = _array.lookup(addr)) {
        refreshLine(*line);
        if (line->valid) {
            unsigned w = wordInLine(addr);
            line->data[w] = value;
            line->wstate[w] = WordState::Valid;
            _array.touch(*line);
        }
    }
}

// ---------------------------------------------------------------------
// Drains (release-side visibility)
// ---------------------------------------------------------------------

void
GpuL1Cache::writeAcked(Addr /*line_addr*/, WordMask /*mask*/)
{
    --_pendingWrites;
    maybeFinishDrains();
}

std::vector<StoreBuffer::DrainGroup>
GpuL1Cache::collectDirtyWords()
{
    std::vector<StoreBuffer::DrainGroup> groups;
    if (!_anyDirty)
        return groups;
    _anyDirty = false;
    _array.forEachValid([&](CacheLine &line) {
        if (line.dirty == 0)
            return;
        groups.push_back({line.addr, line.dirty, line.data});
        line.dirty = 0;
    });
    return groups;
}

void
GpuL1Cache::issueDrain()
{
    // The two sources never overlap: only HRF sets L1 dirty bits, and
    // HRF retires every store in place, so its SB stays empty.
    auto groups = collectDirtyWords();
    auto sb_groups = _sb.drain();
    groups.insert(groups.end(), sb_groups.begin(), sb_groups.end());
    for (const auto &group : groups) {
        ++_pendingWrites;
        writeHome(homeBank(group.lineAddr), group.lineAddr, group.mask,
                  group.data, trace::Phase::L1WriteThrough);
    }
}

// ---------------------------------------------------------------------
// Invalidations (acquire-side)
// ---------------------------------------------------------------------

void
GpuL1Cache::refreshLine(CacheLine &line)
{
    if (line.epoch == _curEpoch)
        return;
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        WordMask bit = static_cast<WordMask>(1u << w);
        if (line.wstate[w] != WordState::Valid)
            continue;
        // HRF keeps this CU's own partial writes (only HRF sets
        // dirty bits): racing writes from other scopes would be
        // heterogeneous races anyway.
        if (line.dirty & bit) {
            ++_stats.wordsPreserved;
            continue;
        }
        line.wstate[w] = WordState::Invalid;
        ++_stats.wordsInvalidated;
    }
    line.epoch = _curEpoch;
    if (line.maskInState(WordState::Valid) == 0 && line.dirty == 0)
        line.valid = false;
}

// ---------------------------------------------------------------------
// Synchronization accesses
// ---------------------------------------------------------------------

void
GpuL1Cache::performSync(std::uint32_t slot)
{
    if (_syncs[slot].scope == Scope::Local)
        performLocalAtomic(slot);
    else
        performAtHome(slot, homeBank(_syncs[slot].op.addr));
}

void
GpuL1Cache::performLocalAtomic(std::uint32_t slot)
{
    const SyncOp &op = _syncs[slot].op;
    CacheLine *line = _array.lookup(op.addr);
    if (line)
        refreshLine(*line);
    unsigned w = wordInLine(op.addr);
    bool present = line && line->valid &&
                   (line->wstate[w] != WordState::Invalid ||
                    (line->dirty & (1u << w)));
    if (present) {
        // The frame copy is the freshest: HRF, the only column with
        // local atomics, retires every store in place (never into the
        // SB), and a fill leaves a word sent home but not yet merged
        // invalid.
        ++_stats.syncHits;
        AtomicResult res = performAtL1(slot, line->data[w]);
        line->data[w] = res.newValue;
        line->wstate[w] = WordState::Valid;
        line->dirty |= static_cast<WordMask>(1u << w);
        _anyDirty = true;
        _array.touch(*line);
        return;
    }

    // Fetch the line, then perform at L1.
    ++_stats.syncMisses;
    Addr line_addr = lineAlign(op.addr);
    ReadEntry &entry = entryFor(line_addr);
    entry.atomicTargets.push_back(slot);
    if (!entry.requestOutstanding) {
        entry.requestOutstanding = true;
        issueRead(line_addr);
    }
}

// ---------------------------------------------------------------------
// Test hooks
// ---------------------------------------------------------------------

bool
GpuL1Cache::wordValid(Addr addr) const
{
    const CacheLine *line = _array.lookup(addr);
    if (!line)
        return false;
    unsigned w = wordInLine(addr);
    if (line->wstate[w] != WordState::Valid)
        return false;
    // Interpret lazy flash invalidation without mutating.
    return line->epoch == _curEpoch || (line->dirty & (1u << w));
}

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

void
GpuL1Cache::describeProtocol(ControllerSnapshot &snap) const
{
    snap.gauge("wt_acks", _pendingWrites);
    _mshr.forEach([&](Addr line_addr, const ReadEntry &entry) {
        std::ostringstream os;
        os << "line 0x" << std::hex << line_addr << std::dec
           << " outstanding=" << entry.requestOutstanding
           << " targets=" << entry.targets.size()
           << " atomics=" << entry.atomicTargets.size();
        snap.detail.push_back(os.str());
    });
}

void
GpuL1Cache::checkProtocol(std::vector<std::string> &out) const
{
    auto fail = [&](const std::string &msg) {
        out.push_back(name() + ": " + msg);
    };

    _mshr.forEach([&](Addr line_addr, const ReadEntry &entry) {
        if (!entry.requestOutstanding && entry.targets.empty() &&
            entry.atomicTargets.empty()) {
            std::ostringstream os;
            os << "leaked MSHR entry for line 0x" << std::hex
               << line_addr << " (no request, no waiters)";
            fail(os.str());
        }
    });
}

} // namespace nosync
