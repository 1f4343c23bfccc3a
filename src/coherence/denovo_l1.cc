#include "coherence/denovo_l1.hh"

#include <sstream>
#include <vector>

#include "trace/trace_sink.hh"

namespace nosync
{

DenovoL1Cache::DenovoL1Cache(const std::string &name, EventQueue &eq,
                             stats::StatSet &stats, EnergyModel &energy,
                             Mesh &mesh, NodeId node,
                             const ProtocolConfig &config,
                             std::vector<DenovoL2Bank *> banks,
                             const RegionMap &regions,
                             const CacheGeometry &geom,
                             trace::TraceSink *trace)
    : L1Controller(name, eq, stats, energy, mesh, node, config, geom,
                   trace),
      _banks(std::move(banks)), _regions(regions),
      _mshr(geom.l1MshrEntries),
      _remoteReadsServed(
          stats.registerScalar(name, ".remote_reads_served",
                               "reads served from this L1 for "
                               "remote CUs")),
      _ownershipTransfers(
          stats.registerScalar(name, ".ownership_transfers",
                               "words whose ownership this L1 "
                               "gave up")),
      _registrationsIssued(
          stats.registerScalar(name, ".registrations_issued",
                               "registration requests sent")),
      _syncCoalesced(
          stats.registerScalar(name, ".sync_coalesced",
                               "sync accesses coalesced into a "
                               "pending registration")),
      _streamingWrites(
          stats.registerScalar(name, ".streaming_writes",
                               "streaming-region write-throughs "
                               "sent (DD+PR)"))
{
    panic_if(_config.protocol() != CoherenceProtocol::Denovo,
             "DenovoL1Cache built with a non-DeNovo protocol config");
}

DenovoL2Bank &
DenovoL1Cache::homeBank(Addr addr)
{
    return *_banks[lineHome(addr, _banks.size())];
}

DenovoL1Cache::LineEntry &
DenovoL1Cache::entryFor(Addr line_addr)
{
    line_addr = lineAlign(line_addr);
    if (LineEntry *entry = _mshr.find(line_addr))
        return *entry;
    LineEntry &entry = _mshr.allocate(line_addr);
    entry.readTargets = _targetPool.borrow();
    return entry;
}

void
DenovoL1Cache::maybeFreeEntry(Addr line_addr)
{
    line_addr = lineAlign(line_addr);
    LineEntry *entry = _mshr.find(line_addr);
    if (entry && entry->idle()) {
        _targetPool.giveBack(std::move(entry->readTargets));
        _mshr.deallocate(line_addr);
    }
}

// ---------------------------------------------------------------------
// Frames and evictions
// ---------------------------------------------------------------------

CacheLine &
DenovoL1Cache::ensureFrame(Addr line_addr)
{
    line_addr = lineAlign(line_addr);
    if (CacheLine *line = _array.lookup(line_addr)) {
        refreshLine(*line);
        if (line->valid) {
            _array.touch(*line);
            return *line;
        }
        // The sweep emptied the frame: reinstall it below.
    }
    // Avoid evicting lines with in-flight protocol activity: their
    // MSHR state (sync chains, queued remote requests) refers to the
    // frame. With 8 ways and a handful of concurrently busy lines per
    // CU this always succeeds in practice; a violation would indicate
    // a protocol bug, so it panics rather than corrupting state.
    CacheLine *victim = _array.findVictimPreferring(
        line_addr, [this](const CacheLine &line) {
            return _mshr.find(line.addr) == nullptr;
        });
    if (victim->valid) {
        LineEntry *busy = _mshr.find(victim->addr);
        panic_if(busy && !(busy->syncQueue.empty() &&
                           busy->syncRunning == 0 &&
                           busy->remoteQueue.empty()),
                 "evicting a line with active synchronization state");
        evictFrame(*victim);
    }
    panic_if(victim->maskInState(WordState::Registered) != 0 &&
                 !victim->valid,
             "installing over an invalid frame that still holds "
             "registered words");
    _array.install(*victim, line_addr);
    victim->epoch = _curEpoch;
    return *victim;
}

void
DenovoL1Cache::evictFrame(CacheLine &victim)
{
    ++_stats.evictions;
    WordMask reg_mask = victim.maskInState(WordState::Registered);
    if (reg_mask == 0)
        return; // Valid words are dropped silently.

    // Registered words are the only up-to-date copy: write both data
    // and ownership back to the registry. The words stay readable
    // until the registry acknowledges, so forwarded requests racing
    // the writeback can still be served.
    writeHome(homeBank(victim.addr), victim.addr, reg_mask, victim.data,
              trace::Phase::L1WritebackIssue);
}

void
DenovoL1Cache::writeAcked(Addr line_addr, WordMask /*mask*/)
{
    releaseHeldRegistrations(line_addr);
}

void
DenovoL1Cache::registerUnlessHeld(LineEntry &entry, Addr line_addr,
                                  WordMask mask, bool is_sync)
{
    // A word whose writeback is still in flight must not re-register
    // until the ack returns, or the registry could process the
    // requests out of order and accept the stale writeback over the
    // new registration.
    WordMask held = mask & unackedWords(line_addr);
    entry.regWaitingWb |= held;
    mask &= ~held;
    if (mask != 0)
        issueRegistration(line_addr, mask, is_sync);
}

void
DenovoL1Cache::releaseHeldRegistrations(Addr line_addr)
{
    LineEntry *entry = _mshr.find(line_addr);
    if (!entry || entry->regWaitingWb == 0)
        return;
    WordMask ready = entry->regWaitingWb &
                     static_cast<WordMask>(~unackedWords(line_addr));
    if (ready == 0)
        return;
    entry->regWaitingWb &= ~ready;
    WordMask sync_mask = ready & entry->syncRegPending;
    WordMask data_mask = ready & entry->dataRegPending &
                         static_cast<WordMask>(~sync_mask);
    if (sync_mask != 0)
        issueRegistration(line_addr, sync_mask, true);
    if (data_mask != 0)
        issueRegistration(line_addr, data_mask, false);
}

// ---------------------------------------------------------------------
// Local value lookup
// ---------------------------------------------------------------------

bool
DenovoL1Cache::peekLocal(Addr addr, std::uint32_t &value)
{
    if (_sb.contains(addr)) {
        value = _sb.value(addr);
        return true;
    }
    unsigned w = wordInLine(addr);
    // A drained-but-unacknowledged store is newer than any cached
    // copy: it left the SB for the MSHR at the last release.
    if (const LineEntry *entry = _mshr.find(addr)) {
        if (entry->dataRegPending & (1u << w)) {
            value = entry->pendingStoreData[w];
            return true;
        }
    }
    if (CacheLine *line = _array.lookup(addr)) {
        refreshLine(*line);
        if (line->valid && line->wstate[w] != WordState::Invalid) {
            value = line->data[w];
            return true;
        }
    }
    return unackedValue(addr, value);
}

// ---------------------------------------------------------------------
// Loads
// ---------------------------------------------------------------------

bool
DenovoL1Cache::loadLocal(Addr addr, std::uint32_t &value)
{
    if (!peekLocal(addr, value))
        return false;
    if (CacheLine *line = _array.lookup(addr))
        _array.touch(*line);
    return true;
}

void
DenovoL1Cache::loadMiss(Addr addr, ValueCallback cb)
{
    ++_stats.loadMisses;
    _energy.l1TagAccess();
    Addr line_addr = lineAlign(addr);
    WordMask bit = wordMaskOf(addr);
    LineEntry &entry = entryFor(line_addr);
    entry.readTargets.push_back({addr, std::move(cb), _curEpoch});

    // A pending registration of this word will install it; no network
    // read needed.
    if (bit & (entry.dataRegPending | entry.syncRegPending |
               entry.syncRunning)) {
        return;
    }
    if (!(bit & (entry.readPending | entry.readUnsent))) {
        // Coalesce same-cycle misses to one request per line.
        entry.readUnsent |= bit;
        if (!entry.readFlushScheduled) {
            entry.readFlushScheduled = true;
            scheduleIn(0, [this, line_addr] {
                flushUnsentReads(line_addr);
            });
        }
    }
}

void
DenovoL1Cache::flushUnsentReads(Addr line_addr)
{
    LineEntry *entry = _mshr.find(line_addr);
    if (!entry)
        return;
    entry->readFlushScheduled = false;
    WordMask mask = entry->readUnsent;
    entry->readUnsent = 0;
    if (mask == 0) {
        maybeFreeEntry(line_addr);
        return;
    }

    // Tags and data communication are at line granularity (sector
    // cache): widen the request to every word of the line this L1
    // does not already hold, so a serial scan over a remotely owned
    // line costs one forward, not one per word.
    mask = kFullLineMask;
    if (CacheLine *frame = _array.lookup(line_addr)) {
        refreshLine(*frame);
        if (frame->valid) {
            mask &= static_cast<WordMask>(
                ~(frame->maskInState(WordState::Valid) |
                  frame->maskInState(WordState::Registered)));
        }
    }

    // Words satisfied or owned meanwhile no longer need fetching.
    mask &= ~(entry->dataRegPending | entry->syncRegPending |
              entry->syncRunning | entry->readPending);
    if (mask == 0) {
        maybeFreeEntry(line_addr);
        return;
    }
    entry->readPending |= mask;
    issueRead(line_addr, mask);
}

void
DenovoL1Cache::issueRead(Addr line_addr, WordMask mask)
{
    if (_trace) {
        _trace->record(curTick(), trace::Phase::L1MissIssue, _node,
                       line_addr, 0, mask);
    }
    DenovoL2Bank &bank = homeBank(line_addr);
    std::uint64_t sent_epoch = _curEpoch;
    _mesh.send(_node, bank.node(), kControlFlits, TrafficClass::Read,
               [this, &bank, line_addr, mask, sent_epoch] {
                   bank.handleReadReq(
                       line_addr, mask, _node, sent_epoch,
                       [this, line_addr,
                        sent_epoch](WordMask l2_mask,
                                    const LineData &data,
                                    WordMask self_mask) {
                           onReadReply(line_addr, l2_mask, data,
                                       self_mask, sent_epoch);
                       });
               });
}

void
DenovoL1Cache::installReadData(Addr line_addr, WordMask mask,
                               const LineData &values,
                               std::uint64_t sent_epoch)
{
    // An acquire intervened: only words that survive it may install.
    if (sent_epoch != _curEpoch)
        mask &= acquireSurvivors(line_addr);
    if (mask == 0)
        return;
    if (LineEntry *entry = _mshr.find(line_addr)) {
        // Never install over a word whose fresh value is still
        // pending locally (awaiting registration or a sync grant):
        // the reply carries the registry's stale copy.
        mask &= ~(entry->dataRegPending | entry->syncRegPending |
                  entry->syncRunning);
        if (mask == 0)
            return;
    }
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        // Likewise for words buffered in the SB: the local store is
        // newer than anything the registry can return.
        if ((mask & (1u << w)) &&
            _sb.contains(line_addr + w * kWordBytes)) {
            mask &= static_cast<WordMask>(~(1u << w));
        }
    }
    if (mask == 0)
        return;
    CacheLine &frame = ensureFrame(line_addr);
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        WordMask bit = static_cast<WordMask>(1u << w);
        if (!(mask & bit))
            continue;
        // Never downgrade a word this L1 registered meanwhile.
        if (frame.wstate[w] == WordState::Invalid) {
            frame.wstate[w] = WordState::Valid;
            frame.data[w] = values[w];
        }
    }
    _energy.l1Access();
}

void
DenovoL1Cache::onReadReply(Addr line_addr, WordMask l2_mask,
                           const LineData &data, WordMask self_mask,
                           std::uint64_t sent_epoch)
{
    LineEntry *entry = _mshr.find(line_addr);
    if (!entry)
        return; // transaction fully resolved by other means

    WordMask arrived = l2_mask | self_mask;
    entry->readPending &= ~arrived;

    installReadData(line_addr, l2_mask, data, sent_epoch);
    settleReads(line_addr, l2_mask, data, sent_epoch);
}

void
DenovoL1Cache::settleReads(Addr line_addr, WordMask reply_mask,
                           const LineData &reply_data,
                           std::uint64_t sent_epoch)
{
    LineEntry *entry = _mshr.find(line_addr);
    if (!entry)
        return;

    // Serve targets: locally readable words first, then words the
    // arriving reply can legally satisfy (the reply is as fresh as
    // its request's acquire epoch).
    std::vector<ReadyLoad> ready = _readyBatch.borrow();
    auto &targets = entry->readTargets;
    for (auto it = targets.begin(); it != targets.end();) {
        std::uint32_t value;
        unsigned w = wordInLine(it->addr);
        if (peekLocal(it->addr, value)) {
            ready.emplace_back(value, std::move(it->cb));
            it = targets.erase(it);
        } else if ((reply_mask & (1u << w)) &&
                   it->epoch <= sent_epoch) {
            ready.emplace_back(reply_data[w], std::move(it->cb));
            it = targets.erase(it);
        } else {
            ++it;
        }
    }
    for (auto &[value, cb] : ready)
        cb(value);
    _readyBatch.giveBack(std::move(ready));

    // Re-find: the callbacks may have erased or mutated the entry.
    entry = _mshr.find(line_addr);
    if (!entry)
        return;

    // Targets issued after a newer acquire (or whose words were
    // self-invalidated) re-fetch.
    WordMask needed = 0;
    for (const auto &target : entry->readTargets)
        needed |= wordMaskOf(target.addr);
    needed &= ~(entry->dataRegPending | entry->syncRegPending |
                entry->syncRunning | entry->readPending |
                entry->readUnsent);
    if (needed != 0) {
        entry->readUnsent |= needed;
        if (!entry->readFlushScheduled) {
            entry->readFlushScheduled = true;
            scheduleIn(0, [this, line_addr] {
                flushUnsentReads(line_addr);
            });
        }
    }
    maybeFreeEntry(line_addr);
}

// ---------------------------------------------------------------------
// Stores
// ---------------------------------------------------------------------

bool
DenovoL1Cache::storeInPlace(Addr addr, std::uint32_t value)
{
    unsigned w = wordInLine(addr);
    CacheLine *line = _array.lookup(addr);
    if (!line || line->wstate[w] != WordState::Registered)
        return false;
    ++_stats.storeHits;
    _energy.l1Access();
    line->data[w] = value;
    // An SB entry from before the word was registered is now stale:
    // the frame is the authoritative copy.
    _sb.erase(addr);
    _array.touch(*line);
    return true;
}

void
DenovoL1Cache::mirrorStore(Addr addr, std::uint32_t value)
{
    if (CacheLine *line = _array.lookup(addr)) {
        refreshLine(*line);
        unsigned w = wordInLine(addr);
        if (line->valid && line->wstate[w] == WordState::Valid)
            line->data[w] = value;
    }
}

// ---------------------------------------------------------------------
// Drains (release-side: obtain ownership for buffered writes)
// ---------------------------------------------------------------------

void
DenovoL1Cache::issueRegistration(Addr line_addr, WordMask mask,
                                 bool is_sync)
{
    ++_registrationsIssued;
    if (_trace) {
        _trace->record(curTick(), trace::Phase::L1RegIssue, _node,
                       line_addr, 0, mask);
    }
    DenovoL2Bank &bank = homeBank(line_addr);
    TrafficClass cls = is_sync ? TrafficClass::Atomic
                               : TrafficClass::Registration;
    _mesh.send(_node, bank.node(), kControlFlits, cls,
               [this, &bank, line_addr, mask, is_sync] {
                   bank.handleRegReq(
                       line_addr, mask, is_sync, _node,
                       [this, line_addr, is_sync](
                           WordMask direct, const LineData &values) {
                           onRegAck(line_addr, direct, values,
                                    is_sync);
                       });
               });
}

void
DenovoL1Cache::onRegAck(Addr line_addr, WordMask direct_mask,
                        const LineData &values, bool is_sync)
{
    if (_trace) {
        _trace->record(curTick(), trace::Phase::L1RegAck, _node,
                       line_addr, 0, direct_mask);
    }
    if (direct_mask != 0)
        grantWords(line_addr, direct_mask, values, is_sync);
}

void
DenovoL1Cache::handleTransferResp(Addr line_addr, WordMask mask,
                                  const LineData &values, bool is_sync)
{
    grantWords(line_addr, mask, values, is_sync);
}

void
DenovoL1Cache::grantWords(Addr line_addr, WordMask mask,
                          const LineData &values, bool values_valid)
{
    line_addr = lineAlign(line_addr);
    LineEntry *entry = _mshr.find(line_addr);
    panic_if(!entry, "ownership grant without a pending transaction");

    CacheLine &frame = ensureFrame(line_addr);
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        WordMask bit = static_cast<WordMask>(1u << w);
        if (!(mask & bit))
            continue;
        frame.wstate[w] = WordState::Registered;
        if (entry->dataRegPending & bit) {
            frame.data[w] = entry->pendingStoreData[w];
            entry->dataRegPending &= ~bit;
            panic_if(_pendingWrites == 0,
                     "pending-write underflow on grant");
            --_pendingWrites;
        } else if (values_valid) {
            frame.data[w] = values[w];
        }
        entry->syncRegPending &= ~bit;
    }
    _array.touch(frame);
    _energy.l1Access();

    // DeNovoSync0 batch rule: every local sync op already queued when
    // ownership arrives is serviced before any queued remote request,
    // so re-stamp pending remotes to the end of the current batch
    // (preserving their relative order). Ops arriving later queue
    // behind the remote and trigger re-registration - that bounded
    // batching is what keeps the distributed queue fair.
    for (auto &remote : entry->remoteQueue) {
        if (remote.mask & mask)
            remote.seq = entry->nextSeq++;
    }

    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        if (mask & (1u << w))
            processSyncQueue(line_addr, w);
    }
    settleReads(line_addr, 0, LineData{}, 0);
    maybeFinishDrains();
    maybeFreeEntry(line_addr);
}

void
DenovoL1Cache::issueDrain()
{
    auto groups = _sb.drain();
    for (const auto &group : groups) {
        CacheLine *frame = _array.lookup(group.lineAddr);
        WordMask reg_mask = 0;
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            WordMask bit = static_cast<WordMask>(1u << w);
            if (!(group.mask & bit))
                continue;
            if (frame && frame->wstate[w] == WordState::Registered) {
                // Already owned (e.g. registered by a sync grant
                // since the store buffered): just write it.
                frame->data[w] = group.data[w];
                continue;
            }
            reg_mask |= bit;
        }

        // DD+PR: streaming-region words bypass registration and
        // write through to the home bank GPU-style. They still ride
        // the dataRegPending/_pendingWrites accounting so release
        // drains wait for the write-through ack and local loads see
        // the pending value, but no ownership is requested and the
        // ack installs nothing — the next consumer reads the fresh
        // copy from L2 in one hop instead of chasing a remote owner.
        WordMask stream_mask = 0;
        if (_config.perRegionPolicy() && reg_mask != 0) {
            stream_mask =
                reg_mask & _regions.streamingMask(group.lineAddr);
            reg_mask &= ~stream_mask;
        }
        if (stream_mask != 0) {
            LineEntry &stream_entry = entryFor(group.lineAddr);
            WordMask newly =
                stream_mask & ~stream_entry.dataRegPending;
            for (unsigned w = 0; w < kWordsPerLine; ++w) {
                if (stream_mask & (1u << w))
                    stream_entry.pendingStoreData[w] = group.data[w];
            }
            _pendingWrites += popcount(newly);
            stream_entry.dataRegPending |= stream_mask;
            // A word with sync activity in flight completes through
            // the sync grant instead (grantWords consumes the
            // pending-store bit exactly as for registrations).
            WordMask to_send = stream_mask &
                               ~stream_entry.syncRegPending &
                               ~stream_entry.syncRunning;
            if (to_send != 0) {
                issueStreamingWrite(group.lineAddr, to_send,
                                    stream_entry.pendingStoreData);
            }
        }
        if (reg_mask == 0)
            continue;

        LineEntry &entry = entryFor(group.lineAddr);
        WordMask newly_pending = reg_mask & ~entry.dataRegPending;
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            if (reg_mask & (1u << w))
                entry.pendingStoreData[w] = group.data[w];
        }
        _pendingWrites += popcount(newly_pending);
        entry.dataRegPending |= reg_mask;
        registerUnlessHeld(entry, group.lineAddr,
                           newly_pending & ~entry.syncRegPending &
                               ~entry.syncRunning,
                           false);
    }
}

void
DenovoL1Cache::issueStreamingWrite(Addr line_addr, WordMask mask,
                                   const LineData &data)
{
    ++_streamingWrites;
    if (_trace) {
        _trace->record(curTick(), trace::Phase::L1WritebackIssue,
                       _node, line_addr, 0, mask);
    }
    DenovoL2Bank &bank = homeBank(line_addr);
    unsigned flits = flitsForWords(popcount(mask));
    _mesh.send(_node, bank.node(), flits, TrafficClass::WriteBack,
               [this, &bank, line_addr, mask, data] {
                   bank.handleStreamingWrite(
                       line_addr, mask, data, _node,
                       [this, line_addr, mask] {
                           onStreamAck(line_addr, mask);
                       });
               });
}

void
DenovoL1Cache::onStreamAck(Addr line_addr, WordMask mask)
{
    LineEntry *entry = _mshr.find(line_addr);
    if (!entry)
        return;
    // Only words still pending complete here: a word granted
    // meanwhile (sync registration racing the write-through) was
    // already consumed by grantWords.
    WordMask done = mask & entry->dataRegPending;
    if (done == 0)
        return;
    entry->dataRegPending &= ~done;
    unsigned words = popcount(done);
    panic_if(_pendingWrites < words,
             "pending-write underflow on streaming ack");
    _pendingWrites -= words;
    // Read targets parked on the pending words re-fetch from L2 now
    // that the fresh value lives there (nothing installed locally).
    settleReads(line_addr, 0, LineData{}, 0);
    maybeFinishDrains();
    maybeFreeEntry(line_addr);
}

// ---------------------------------------------------------------------
// Synchronization accesses (DeNovoSync0)
// ---------------------------------------------------------------------

bool
DenovoL1Cache::wordBusy(Addr line_addr, unsigned word)
{
    const LineEntry *entry = _mshr.find(line_addr);
    if (!entry)
        return false;
    WordMask bit = static_cast<WordMask>(1u << word);
    if (bit &
        (entry->syncRegPending | entry->dataRegPending |
         entry->syncRunning)) {
        return true;
    }
    for (const auto &waiter : entry->syncQueue) {
        if (waiter.word == word)
            return true;
    }
    for (const auto &remote : entry->remoteQueue) {
        if (remote.mask & bit)
            return true;
    }
    return false;
}

void
DenovoL1Cache::performSync(std::uint32_t slot)
{
    if (_syncs[slot].scope == Scope::Local) {
        performLocalHrfSync(slot);
    } else if (_config.syncEngine()) {
        // DD+SE, SynCron-style memory-side execution: the sync op
        // travels to the home bank and performs there; the sync
        // word's ownership never migrates to this L1, so contended
        // sync variables stop ping-ponging through the registry's
        // distributed queue.
        performAtHome(slot, homeBank(_syncs[slot].op.addr));
    } else {
        performOwnedSync(slot);
    }
}

void
DenovoL1Cache::performOwnedSync(std::uint32_t slot)
{
    const SyncOp &op = _syncs[slot].op;
    Addr line_addr = lineAlign(op.addr);
    unsigned w = wordInLine(op.addr);

    CacheLine *frame = _array.lookup(op.addr);
    bool registered = frame &&
                      frame->wstate[w] == WordState::Registered;
    if (registered && !wordBusy(line_addr, w)) {
        // Registration hit: the atomic performs at the L1 with no
        // network traffic at all.
        ++_stats.syncHits;
        std::uint32_t old_val = _sb.contains(op.addr)
                                    ? _sb.value(op.addr)
                                    : frame->data[w];
        _sb.erase(op.addr);
        AtomicResult res = performAtL1(slot, old_val);
        frame->data[w] = res.newValue;
        _array.touch(*frame);
        return;
    }

    LineEntry &entry = entryFor(line_addr);
    entry.syncQueue.push_back({w, slot, entry.nextSeq++});
    WordMask bit = static_cast<WordMask>(1u << w);

    if (bit & (entry.syncRegPending | entry.dataRegPending |
               entry.syncRunning)) {
        // Coalesce with the in-flight registration or running batch
        // from this CU.
        ++_syncCoalesced;
        return;
    }

    if (registered) {
        // Word owned but a queue exists (e.g. a pending remote
        // transfer): join in arrival order.
        ++_syncCoalesced;
        processSyncQueue(line_addr, w);
        return;
    }

    ++_stats.syncMisses;
    entry.syncRegPending |= bit;
    registerUnlessHeld(entry, line_addr, bit, true);
}

bool
DenovoL1Cache::holdsWord(Addr line_addr, unsigned word)
{
    CacheLine *frame = _array.lookup(line_addr);
    if (frame && frame->wstate[word] == WordState::Registered)
        return true;
    return unackedWords(line_addr) & (1u << word);
}

void
DenovoL1Cache::processSyncQueue(Addr line_addr, unsigned word)
{
    LineEntry *entry = _mshr.find(line_addr);
    if (!entry)
        return;
    WordMask bit = static_cast<WordMask>(1u << word);
    if (entry->syncRunning & bit)
        return;

    // Pick the earliest pending item (local op or remote request)
    // for this word. Arrival order is what makes the distributed
    // queue fair: local ops coalesced before a remote transfer run
    // first; local ops arriving after it wait for re-registration.
    auto local_it = entry->syncQueue.end();
    for (auto it = entry->syncQueue.begin();
         it != entry->syncQueue.end(); ++it) {
        if (it->word == word &&
            (local_it == entry->syncQueue.end() ||
             it->seq < local_it->seq)) {
            local_it = it;
        }
    }
    auto remote_it = entry->remoteQueue.end();
    for (auto it = entry->remoteQueue.begin();
         it != entry->remoteQueue.end(); ++it) {
        if ((it->mask & bit) &&
            (remote_it == entry->remoteQueue.end() ||
             it->seq < remote_it->seq)) {
            remote_it = it;
        }
    }

    bool have_local = local_it != entry->syncQueue.end();
    bool have_remote = remote_it != entry->remoteQueue.end();
    if (!have_local && !have_remote) {
        maybeFreeEntry(line_addr);
        return;
    }

    if (have_remote &&
        (!have_local || remote_it->seq < local_it->seq)) {
        if (!holdsWord(line_addr, word)) {
            // Our own (re-)registration is in flight; the grant
            // re-enters this function.
            return;
        }
        if (remote_it->kind == QueuedRemote::Kind::ReadFwd) {
            NodeId target = remote_it->target;
            std::uint64_t req_epoch = remote_it->reqEpoch;
            remote_it->mask &= ~bit;
            if (remote_it->mask == 0)
                entry->remoteQueue.erase(remote_it);
            respondReadFwd(line_addr, bit, target, req_epoch);
            processSyncQueue(line_addr, word);
            return;
        }
        // Ownership transfer: give the word up, then re-register if
        // local sync ops arrived after the remote request did.
        NodeId target = remote_it->target;
        bool is_sync = remote_it->isSync;
        bool to_l2 = remote_it->toL2;
        remote_it->mask &= ~bit;
        if (remote_it->mask == 0)
            entry->remoteQueue.erase(remote_it);
        respondTransfer(line_addr, bit, target, is_sync, to_l2);

        if (have_local && !(entry->syncRegPending & bit) &&
            !(entry->dataRegPending & bit)) {
            ++_stats.syncMisses;
            entry->syncRegPending |= bit;
            registerUnlessHeld(*entry, line_addr, bit, true);
        }
        maybeFreeEntry(line_addr);
        return;
    }

    // Local sync op is next; it needs ownership to execute.
    if (!holdsWord(line_addr, word))
        return; // a registration is pending; its grant re-enters
    CacheLine *frame = _array.lookup(line_addr);
    panic_if(!frame || frame->wstate[word] != WordState::Registered,
             "local sync op scheduled on a word held only in an "
             "unacked writeback");

    std::uint32_t slot = local_it->slot;
    entry->syncQueue.erase(local_it);
    entry->syncRunning |= bit;

    scheduleIn(kL1AtomicLatency, [this, line_addr, word, bit, slot] {
        CacheLine *frame = _array.lookup(line_addr);
        panic_if(!frame ||
                     frame->wstate[word] != WordState::Registered,
                 "queued sync op executing without ownership");
        AtomicResult res =
            performAtL1(slot, frame->data[word], /*reply=*/false);
        frame->data[word] = res.newValue;
        _array.touch(*frame);

        LineEntry *entry = _mshr.find(line_addr);
        panic_if(!entry, "sync chain lost its MSHR entry");
        entry->syncRunning &= ~bit;
        finishSync(slot, res.returned);
        processSyncQueue(line_addr, word);
    });
}

void
DenovoL1Cache::performLocalHrfSync(std::uint32_t slot)
{
    const SyncOp op = _syncs[slot].op;
    std::uint32_t old_val;
    if (!peekLocal(op.addr, old_val)) {
        // Fetch the line first, then perform locally. loadLocal would
        // miss just as peekLocal did, so this goes straight to loadMiss.
        ++_stats.syncMisses;
        loadMiss(op.addr, [this, slot](std::uint32_t) {
            performLocalHrfSync(slot);
        });
        return;
    }

    if (_sb.full() && !_sb.contains(op.addr)) {
        // Need a buffer slot for the lazily-owned result.
        ++_stats.sbOverflowDrains;
        startDrain([this, slot] { performLocalHrfSync(slot); });
        return;
    }

    ++_stats.syncHits;
    AtomicResult res = performAtL1(slot, old_val);

    unsigned w = wordInLine(op.addr);
    CacheLine *frame = _array.lookup(op.addr);
    if (frame && frame->wstate[w] == WordState::Registered) {
        // Already owned: update in place, no lazy buffering needed.
        frame->data[w] = res.newValue;
        _sb.erase(op.addr);
    } else {
        // Delay obtaining ownership: the result lives in the store
        // buffer until the next global release registers it.
        _sb.insert(op.addr, res.newValue);
        if (frame && frame->wstate[w] == WordState::Valid)
            frame->data[w] = res.newValue;
    }
}

// ---------------------------------------------------------------------
// Remote requests (forwarded by the registry)
// ---------------------------------------------------------------------

void
DenovoL1Cache::respondReadFwd(Addr line_addr, WordMask mask,
                              NodeId requestor,
                              std::uint64_t req_epoch)
{
    ++_remoteReadsServed;
    _energy.l1Access();
    LineData values{};
    CacheLine *frame = _array.lookup(line_addr);
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        WordMask bit = static_cast<WordMask>(1u << w);
        if (!(mask & bit))
            continue;
        if (frame && frame->wstate[w] != WordState::Invalid)
            values[w] = frame->data[w];
        else if (!unackedValue(line_addr + w * kWordBytes, values[w]))
            panic("read forward for a word this L1 cannot serve");
    }
    DenovoL1Cache *peer = _peers[static_cast<std::size_t>(requestor)];
    unsigned flits = flitsForWords(popcount(mask));
    _mesh.send(_node, requestor, flits, TrafficClass::Read,
               [peer, line_addr, mask, values, req_epoch] {
                   peer->onReadReply(line_addr, mask, values, 0,
                                     req_epoch);
               });
}

void
DenovoL1Cache::respondTransfer(Addr line_addr, WordMask mask,
                               NodeId target, bool is_sync, bool to_l2)
{
    _ownershipTransfers += popcount(mask);
    LineData values{};
    CacheLine *frame = _array.lookup(line_addr);
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        WordMask bit = static_cast<WordMask>(1u << w);
        if (!(mask & bit))
            continue;
        if (frame && frame->wstate[w] == WordState::Registered) {
            values[w] = frame->data[w];
            frame->wstate[w] = WordState::Invalid;
        } else if (!unackedValue(line_addr + w * kWordBytes, values[w])) {
            panic("ownership transfer for a word this L1 does not "
                  "hold");
        }
    }

    if (to_l2) {
        DenovoL2Bank &bank = homeBank(line_addr);
        unsigned flits = flitsForWords(popcount(mask));
        _mesh.send(_node, bank.node(), flits, TrafficClass::WriteBack,
                   [&bank, line_addr, mask, values] {
                       bank.handleRecallData(line_addr, mask, values);
                   });
        return;
    }

    DenovoL1Cache *peer = _peers[static_cast<std::size_t>(target)];
    TrafficClass cls = is_sync ? TrafficClass::Atomic
                               : TrafficClass::Registration;
    unsigned flits = is_sync ? flitsForWords(popcount(mask))
                             : kControlFlits;
    _mesh.send(_node, target, flits, cls,
               [peer, line_addr, mask, values, is_sync] {
                   peer->handleTransferResp(line_addr, mask, values,
                                            is_sync);
               });
}

WordMask
DenovoL1Cache::servableNow(Addr line_addr, WordMask mask)
{
    WordMask immediate = 0;
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        WordMask bit = static_cast<WordMask>(1u << w);
        if ((mask & bit) && holdsWord(line_addr, w) &&
            !wordBusy(line_addr, w)) {
            immediate |= bit;
        }
    }
    return immediate;
}

void
DenovoL1Cache::queueRemote(Addr line_addr, QueuedRemote remote)
{
    if (remote.mask == 0)
        return;
    LineEntry &entry = entryFor(line_addr);
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        WordMask bit = static_cast<WordMask>(1u << w);
        if (!(remote.mask & bit))
            continue;
        panic_if(!holdsWord(line_addr, w) &&
                     !(bit & (entry.syncRegPending |
                              entry.dataRegPending)),
                 "remote request for a word this L1 neither holds nor "
                 "awaits: at ", name(), " line=0x", std::hex, line_addr,
                 std::dec, " word=", w, " target=", remote.target,
                 " transfer=",
                 remote.kind == QueuedRemote::Kind::Transfer,
                 " toL2=", remote.toL2, " syncPend=",
                 entry.syncRegPending, " dataPend=",
                 entry.dataRegPending);
    }
    remote.seq = entry.nextSeq++;
    WordMask queued = remote.mask;
    entry.remoteQueue.push_back(remote);
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        if (queued & (1u << w))
            processSyncQueue(line_addr, w);
    }
}

void
DenovoL1Cache::handleReadFwd(Addr line_addr, WordMask mask,
                             NodeId requestor,
                             std::uint64_t req_epoch)
{
    line_addr = lineAlign(line_addr);
    // Serve every immediately servable word with a single response
    // message (line-granularity transfer); queue only words tied up
    // in local synchronization activity.
    WordMask immediate = servableNow(line_addr, mask);
    if (immediate != 0)
        respondReadFwd(line_addr, immediate, requestor, req_epoch);
    queueRemote(line_addr, {QueuedRemote::Kind::ReadFwd,
                            static_cast<WordMask>(mask & ~immediate),
                            requestor, false, false, 0, req_epoch});
}

void
DenovoL1Cache::handleTransferReq(Addr line_addr, WordMask mask,
                                 NodeId new_owner, bool is_sync,
                                 bool to_l2)
{
    line_addr = lineAlign(line_addr);
    // Hand over every immediately servable word in one response
    // message; only words tied up in local activity take the queued
    // per-word path.
    WordMask immediate = servableNow(line_addr, mask);
    if (immediate != 0)
        respondTransfer(line_addr, immediate, new_owner, is_sync, to_l2);
    queueRemote(line_addr, {QueuedRemote::Kind::Transfer,
                            static_cast<WordMask>(mask & ~immediate),
                            new_owner, is_sync, to_l2, 0, 0});
}

// ---------------------------------------------------------------------
// Acquire-side invalidation
// ---------------------------------------------------------------------

WordMask
DenovoL1Cache::acquireSurvivors(Addr line_addr) const
{
    return _config.readOnlyRegions() ? _regions.readOnlyMask(line_addr)
                                     : 0;
}

void
DenovoL1Cache::refreshLine(CacheLine &line)
{
    if (line.epoch == _curEpoch)
        return;
    // Read the live region map, never a fill-time copy: regions
    // re-declared since this line filled must not leave a word that
    // is no longer read-only surviving the acquire with stale data.
    WordMask keep_ro = acquireSurvivors(line.addr);
    bool any_left = false;
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        WordMask bit = static_cast<WordMask>(1u << w);
        switch (line.wstate[w]) {
          case WordState::Registered:
            ++_stats.wordsPreserved;
            any_left = true;
            break;
          case WordState::Valid:
            if (keep_ro & bit) {
                ++_stats.wordsPreserved;
                any_left = true;
            } else {
                line.wstate[w] = WordState::Invalid;
                ++_stats.wordsInvalidated;
            }
            break;
          case WordState::Invalid:
            break;
        }
    }
    line.epoch = _curEpoch;
    if (!any_left)
        line.valid = false;
}

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

void
DenovoL1Cache::describeProtocol(ControllerSnapshot &snap) const
{
    snap.gauge("pending_writes", _pendingWrites);
    _mshr.forEach([&](Addr line_addr, const LineEntry &entry) {
        std::ostringstream os;
        os << "line 0x" << std::hex << line_addr
           << " readPend=0x" << entry.readPending << " dataReg=0x"
           << entry.dataRegPending << " syncReg=0x"
           << entry.syncRegPending << " syncRun=0x"
           << entry.syncRunning << " waitWb=0x" << entry.regWaitingWb
           << std::dec << " targets=" << entry.readTargets.size()
           << " syncQ=" << entry.syncQueue.size()
           << " remoteQ=" << entry.remoteQueue.size();
        snap.detail.push_back(os.str());
    });
}

void
DenovoL1Cache::checkProtocol(std::vector<std::string> &out) const
{
    auto fail = [&](const std::string &msg) {
        out.push_back(name() + ": " + msg);
    };

    unsigned data_reg_words = 0;
    _mshr.forEach([&](Addr line_addr, const LineEntry &entry) {
        data_reg_words += popcount(entry.dataRegPending);
        WordMask pending = static_cast<WordMask>(
            entry.dataRegPending | entry.syncRegPending);
        if (entry.regWaitingWb & ~pending) {
            std::ostringstream os;
            os << "line 0x" << std::hex << line_addr
               << ": regWaitingWb=0x" << entry.regWaitingWb
               << " not covered by pending registrations 0x"
               << pending;
            fail(os.str());
        }
    });
    if (data_reg_words != _pendingWrites) {
        std::ostringstream os;
        os << "pending-write count " << _pendingWrites
           << " disagrees with MSHR dataRegPending total "
           << data_reg_words;
        fail(os.str());
    }
}

void
DenovoL1Cache::forEachRegisteredWord(
    const std::function<void(Addr)> &fn) const
{
    _array.forEachValid([&](const CacheLine &line) {
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            if (line.wstate[w] == WordState::Registered)
                fn(line.addr + w * kWordBytes);
        }
    });
}

void
DenovoL1Cache::debugCorruptWordState(Addr addr, WordState st)
{
    CacheLine *line = _array.lookup(addr);
    if (!line) {
        line = _array.findVictim(addr);
        _array.install(*line, lineAlign(addr));
    }
    line->epoch = _curEpoch; // exempt from the lazy acquire sweep
    line->wstate[wordInLine(addr)] = st;
}

WordState
DenovoL1Cache::wordState(Addr addr) const
{
    const CacheLine *line = _array.lookup(addr);
    if (!line)
        return WordState::Invalid;
    unsigned w = wordInLine(addr);
    WordState st = line->wstate[w];
    if (st == WordState::Valid && line->epoch != _curEpoch) {
        // Interpret lazy invalidation without mutating, as
        // refreshLine would.
        bool kept = acquireSurvivors(line->addr) & (1u << w);
        return kept ? WordState::Valid : WordState::Invalid;
    }
    return st;
}

} // namespace nosync
