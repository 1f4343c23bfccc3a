#include "coherence/denovo_l2.hh"

#include <algorithm>

#include "coherence/denovo_l1.hh"
#include "trace/trace_sink.hh"

namespace nosync
{

DenovoL2Bank::DenovoL2Bank(const std::string &name, EventQueue &eq,
                           stats::StatSet &stats, EnergyModel &energy,
                           Mesh &mesh, NodeId node, FunctionalMem &memory,
                           const CacheGeometry &geom,
                           trace::TraceSink *trace)
    : L2Controller(name, eq, stats, energy, mesh, node, memory, geom,
                   trace),
      _registrations(
          stats.registerScalar(name, ".registrations",
                               "data registrations processed")),
      _syncRegistrations(
          stats.registerScalar(name, ".sync_registrations",
                               "sync registrations processed")),
      _forwards(
          stats.registerScalar(name, ".forwards",
                               "requests forwarded to owner L1s")),
      _writebacks(stats.registerScalar(
          name, ".writebacks", "registered-word writebacks accepted")),
      _streamingWritesStat(
          stats.registerScalar(name, ".streaming_writes",
                               "streaming-region write-through "
                               "words accepted (DD+PR)")),
      _staleWritebacks(
          stats.registerScalar(name, ".stale_writebacks",
                               "writebacks ignored (ownership "
                               "already moved)")),
      _recallsStat(stats.registerScalar(name, ".recalls",
                                        "L2 evictions requiring "
                                        "ownership recall"))
{
    registerFillStats(stats, "line writebacks to memory");
    _engineSyncs = stats.registerScalar(
        name, ".engine_syncs",
        "sync ops executed at the bank's sync engine (DD+SE)");
}

// ---------------------------------------------------------------------
// Line residency
// ---------------------------------------------------------------------

bool
DenovoL2Bank::deferWhileRecalling(Addr line_addr, LineFn &fn)
{
    RecallState *recall = _recalls.find(line_addr);
    if (!recall)
        return false;
    // The line is being evicted; replay the request once the recall
    // completes (the line will then re-fetch from memory).
    recall->deferred.push_back(std::move(fn));
    return true;
}

bool
DenovoL2Bank::recallFirst(CacheLine &victim, Addr line_addr)
{
    if (victim.maskInState(WordState::Registered) == 0)
        return false;
    RecallState &state = _recalls[victim.addr];
    state.blockedFetches.push_back(line_addr);
    if (state.outstanding == 0)
        startRecall(victim);
    return true;
}

void
DenovoL2Bank::startRecall(CacheLine &victim)
{
    ++_recallsStat;
    RecallState &state = _recalls[victim.addr];
    PendingSyncState *pending = _pendingSyncs.find(victim.addr);

    // Group registered words by owner and pull them back.
    std::fill(_fwdScratch.begin(), _fwdScratch.end(), WordMask{0});
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        if (victim.wstate[w] == WordState::Registered) {
            WordMask bit = static_cast<WordMask>(1u << w);
            state.outstanding |= bit;
            // A sync-engine reclaim already in flight doubles as the
            // recall transfer for its word; don't pull twice.
            if (pending && (pending->requested & bit))
                continue;
            _fwdScratch[static_cast<std::size_t>(victim.owner[w])] |=
                bit;
        }
    }
    Addr line_addr = victim.addr;
    for (NodeId owner = 0;
         owner < static_cast<NodeId>(_fwdScratch.size()); ++owner) {
        WordMask mask = _fwdScratch[static_cast<std::size_t>(owner)];
        if (mask == 0)
            continue;
        ++_forwards;
        DenovoL1Cache *l1 = _l1s[static_cast<std::size_t>(owner)];
        _mesh.send(_node, owner, kControlFlits, TrafficClass::WriteBack,
                   [l1, line_addr, mask, node = _node] {
                       l1->handleTransferReq(line_addr, mask, node,
                                             false, true);
                   });
    }
}

void
DenovoL2Bank::handleRecallData(Addr line_addr, WordMask mask,
                               const LineData &data)
{
    line_addr = lineAlign(line_addr);
    _energy.l2Access();
    CacheLine *line = _array.lookup(line_addr);
    panic_if(!line, "recall data for absent line");
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        if (!(mask & (1u << w)))
            continue;
        line->data[w] = data[w];
        line->wstate[w] = WordState::Valid;
        line->owner[w] = static_cast<std::int16_t>(kNoNode);
        line->dirty |= static_cast<WordMask>(1u << w);
    }

    RecallState *state = _recalls.find(line_addr);
    if (!state) {
        // Not an eviction recall: the words were reclaimed by the
        // sync engine (handleAtomic on a registered word). The line
        // stays resident; perform the sync ops that were waiting.
        PendingSyncState *pending = _pendingSyncs.find(line_addr);
        panic_if(!pending, "recall data without recall or "
                           "pending-sync state");
        pending->requested &= ~mask;
        servePendingSyncs(*line, line_addr);
        return;
    }
    // An eviction recall owns the response now, even for words a
    // sync-engine reclaim pulled: the queued sync ops replay after
    // the recall completes (finishRecall), against the refetched
    // line.
    if (PendingSyncState *pending = _pendingSyncs.find(line_addr))
        pending->requested &= ~mask;
    state->outstanding &= ~mask;
    if (state->outstanding == 0)
        finishRecall(line_addr);
}

void
DenovoL2Bank::finishRecall(Addr line_addr)
{
    CacheLine *line = _array.lookup(line_addr);
    panic_if(!line, "finishing recall of absent line");
    _memory.writeLineMasked(line_addr, line->data,
                            line->maskInState(WordState::Valid));
    ++_dramWritebacks;
    line->clear();

    RecallState *live = _recalls.find(line_addr);
    panic_if(!live, "finishing recall without recall state");
    RecallState state = std::move(*live);
    _recalls.erase(line_addr);
    for (auto &fn : state.deferred) {
        auto replay = [this, line_addr, fn = std::move(fn)]() mutable {
            withLine(line_addr, std::move(fn));
        };
        static_assert(EventFn::fitsInline<decltype(replay)>(),
                      "an L2 recall replay outgrew EventFn's inline "
                      "buffer");
        scheduleIn(0, std::move(replay));
    }
    for (Addr blocked : state.blockedFetches)
        finishFetch(blocked);

    if (PendingSyncState *pending = _pendingSyncs.find(line_addr)) {
        // The recall wrote every reclaimed word back to memory;
        // replay the queued sync ops against the refetched line.
        auto ops = std::move(pending->ops);
        _pendingSyncs.erase(line_addr);
        for (auto &p : ops) {
            scheduleIn(0, [this, p = std::move(p)]() mutable {
                handleAtomic(p.op, p.requestor, std::move(p.reply));
            });
        }
    }
}

// ---------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------

void
DenovoL2Bank::handleReadReq(Addr line_addr, WordMask mask,
                            NodeId requestor, std::uint64_t req_epoch,
                            ReadReply reply)
{
    ++_reads;
    withLine(line_addr, [this, line_addr, mask, requestor, req_epoch,
                         reply = std::move(reply)](
                            CacheLine &line) mutable {
        WordMask self_mask = 0;
        bool any_fwd = false;
        std::fill(_fwdScratch.begin(), _fwdScratch.end(),
                  WordMask{0});
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            WordMask bit = static_cast<WordMask>(1u << w);
            if (!(mask & bit))
                continue;
            if (line.wstate[w] != WordState::Registered)
                continue;
            if (line.owner[w] == requestor) {
                self_mask |= bit;
            } else {
                _fwdScratch[static_cast<std::size_t>(
                    line.owner[w])] |= bit;
                any_fwd = true;
            }
        }

        // The reply carries every word the L2 can serve (sector-style
        // line transfer of useful words only).
        WordMask l2_mask = line.maskInState(WordState::Valid);
        if (_trace) {
            _trace->record(curTick(), trace::Phase::L2ReadServe, _node,
                           lineAlign(line_addr), 0, l2_mask);
        }
        unsigned flits = flitsForWords(popcount(l2_mask));
        _mesh.send(_node, requestor, flits, TrafficClass::Read,
                   [reply = std::move(reply), l2_mask,
                    data = line.data, self_mask] {
                       reply(l2_mask, data, self_mask);
                   });

        for (NodeId owner = 0;
             any_fwd &&
             owner < static_cast<NodeId>(_fwdScratch.size());
             ++owner) {
            WordMask fwd_mask =
                _fwdScratch[static_cast<std::size_t>(owner)];
            if (fwd_mask == 0)
                continue;
            ++_forwards;
            if (_trace) {
                _trace->record(curTick(), trace::Phase::L2Forward,
                               _node, lineAlign(line_addr), 0,
                               static_cast<std::uint16_t>(owner));
            }
            DenovoL1Cache *l1 = _l1s[static_cast<std::size_t>(owner)];
            _mesh.send(_node, owner, kControlFlits, TrafficClass::Read,
                       [l1, line_addr, fwd_mask, requestor,
                        req_epoch] {
                           l1->handleReadFwd(lineAlign(line_addr),
                                             fwd_mask, requestor,
                                             req_epoch);
                       });
        }
    });
}

// ---------------------------------------------------------------------
// Registrations
// ---------------------------------------------------------------------

void
DenovoL2Bank::handleRegReq(Addr line_addr, WordMask mask, bool is_sync,
                           NodeId requestor, RegReply reply)
{
    if (is_sync)
        ++_syncRegistrations;
    else
        ++_registrations;

    withLine(line_addr, [this, line_addr, mask, is_sync, requestor,
                         reply = std::move(reply)](
                            CacheLine &line) mutable {
        WordMask direct = 0;
        WordMask moved = 0;
        bool any_fwd = false;
        std::fill(_fwdScratch.begin(), _fwdScratch.end(),
                  WordMask{0});
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            WordMask bit = static_cast<WordMask>(1u << w);
            if (!(mask & bit))
                continue;
            if (line.wstate[w] == WordState::Registered) {
                if (line.owner[w] == requestor) {
                    direct |= bit;
                } else {
                    // Serialize racy registrations in arrival order:
                    // record the new owner now and forward to the old
                    // one, forming the distributed queue.
                    _fwdScratch[static_cast<std::size_t>(
                        line.owner[w])] |= bit;
                    any_fwd = true;
                    moved |= bit;
                    line.owner[w] =
                        static_cast<std::int16_t>(requestor);
                }
            } else {
                direct |= bit;
                moved |= bit;
                line.wstate[w] = WordState::Registered;
                line.owner[w] = static_cast<std::int16_t>(requestor);
            }
        }

        if (_trace && moved) {
            // One event per request: the words whose registered
            // owner just became the requestor (direct grants plus
            // queue-forwarded words).
            _trace->record(curTick(), trace::Phase::L2OwnerChange,
                           _node, lineAlign(line_addr), 0, moved);
        }

        TrafficClass cls = is_sync ? TrafficClass::Atomic
                                   : TrafficClass::Registration;
        unsigned flits = is_sync ? flitsForWords(popcount(direct))
                                 : kControlFlits;
        _mesh.send(_node, requestor, flits, cls,
                   [reply = std::move(reply), direct,
                    data = line.data] { reply(direct, data); });

        for (NodeId owner = 0;
             any_fwd &&
             owner < static_cast<NodeId>(_fwdScratch.size());
             ++owner) {
            WordMask fwd_mask =
                _fwdScratch[static_cast<std::size_t>(owner)];
            if (fwd_mask == 0)
                continue;
            ++_forwards;
            if (_trace) {
                _trace->record(curTick(), trace::Phase::L2Forward,
                               _node, lineAlign(line_addr), 0,
                               static_cast<std::uint16_t>(owner));
            }
            DenovoL1Cache *l1 = _l1s[static_cast<std::size_t>(owner)];
            _mesh.send(_node, owner, kControlFlits, cls,
                       [l1, line_addr, fwd_mask, requestor, is_sync] {
                           l1->handleTransferReq(lineAlign(line_addr),
                                                 fwd_mask, requestor,
                                                 is_sync, false);
                       });
        }
    });
}

// ---------------------------------------------------------------------
// Writebacks
// ---------------------------------------------------------------------

void
DenovoL2Bank::handleWrite(Addr line_addr, WordMask mask,
                          const LineData &data, NodeId requestor,
                          DoneCallback ack)
{
    withLine(line_addr, [this, mask, data, requestor,
                         ack = std::move(ack)](
                            CacheLine &line) mutable {
        WordMask accepted = 0;
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            WordMask bit = static_cast<WordMask>(1u << w);
            if (!(mask & bit))
                continue;
            if (line.wstate[w] == WordState::Registered &&
                line.owner[w] == requestor) {
                line.data[w] = data[w];
                line.wstate[w] = WordState::Valid;
                line.owner[w] = static_cast<std::int16_t>(kNoNode);
                line.dirty |= bit;
                accepted |= bit;
                ++_writebacks;
            } else {
                // Ownership already moved on; the data is stale.
                ++_staleWritebacks;
            }
        }
        if (_trace && accepted) {
            // Accepted words return to L2 ownership (owner = none).
            _trace->record(curTick(), trace::Phase::L2OwnerChange,
                           _node, lineAlign(line.addr), 0, accepted);
        }
        _mesh.send(_node, requestor, kControlFlits,
                   TrafficClass::WriteBack, std::move(ack));
    });
}

void
DenovoL2Bank::handleStreamingWrite(Addr line_addr, WordMask mask,
                                   const LineData &data,
                                   NodeId requestor, DoneCallback ack)
{
    withLine(line_addr, [this, mask, data, requestor,
                         ack = std::move(ack)](
                            CacheLine &line) mutable {
        WordMask accepted = 0;
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            WordMask bit = static_cast<WordMask>(1u << w);
            if (!(mask & bit))
                continue;
            if (line.wstate[w] == WordState::Registered) {
                // An L1 owns the word (the program registered it by
                // sync or mis-declared the region): the owned copy
                // is authoritative, the write-through is stale.
                ++_staleWritebacks;
                continue;
            }
            line.data[w] = data[w];
            line.wstate[w] = WordState::Valid;
            line.dirty |= bit;
            accepted |= bit;
            ++_streamingWritesStat;
        }
        if (_trace && accepted) {
            _trace->record(curTick(), trace::Phase::L2OwnerChange,
                           _node, lineAlign(line.addr), 0, accepted);
        }
        _mesh.send(_node, requestor, kControlFlits,
                   TrafficClass::WriteBack, std::move(ack));
    });
}

// ---------------------------------------------------------------------
// Memory-side sync engine (DD+SE)
// ---------------------------------------------------------------------

void
DenovoL2Bank::handleAtomic(const SyncOp &op, NodeId requestor,
                           ValueCallback reply)
{
    ++_engineSyncs;
    withLine(op.addr, [this, op, requestor,
                       reply = std::move(reply)](CacheLine &line) mutable {
        Addr line_addr = lineAlign(op.addr);
        unsigned w = wordInLine(op.addr);
        bool registered = line.wstate[w] == WordState::Registered;

        // Syncs on the same word must perform in arrival order: if
        // older ops are already queued for this word, join the queue
        // even when the word itself has returned.
        bool word_waiting = false;
        if (PendingSyncState *pending = _pendingSyncs.find(line_addr)) {
            for (const PendingSync &p : pending->ops) {
                if (wordInLine(p.op.addr) == w) {
                    word_waiting = true;
                    break;
                }
            }
        }
        if (!registered && !word_waiting) {
            performAtomic(line, op, requestor, std::move(reply));
            return;
        }

        // The word lives in an L1 (it was registered by plain data
        // writes, e.g. initialization in an earlier kernel): pull it
        // back and queue the op behind the reclaim.
        PendingSyncState &state = _pendingSyncs[line_addr];
        state.ops.push_back({op, requestor, std::move(reply)});
        if (registered)
            issueSyncReclaim(line, line_addr,
                             static_cast<WordMask>(1u << w));
    });
}

void
DenovoL2Bank::issueSyncReclaim(CacheLine &line, Addr line_addr,
                               WordMask bit)
{
    PendingSyncState &state = _pendingSyncs[line_addr];
    if (state.requested & bit)
        return; // reclaim already in flight
    state.requested |= bit;
    ++_forwards;

    unsigned w = 0;
    while (!(bit & (1u << w)))
        ++w;
    NodeId owner = line.owner[w];
    DenovoL1Cache *l1 = _l1s[static_cast<std::size_t>(owner)];
    _mesh.send(_node, owner, kControlFlits, TrafficClass::Atomic,
               [l1, line_addr, bit, node = _node] {
                   l1->handleTransferReq(line_addr, bit, node, false,
                                         true);
               });
}

void
DenovoL2Bank::servePendingSyncs(CacheLine &line, Addr line_addr)
{
    PendingSyncState *state = _pendingSyncs.find(line_addr);
    if (!state)
        return;
    std::deque<PendingSync> keep;
    while (!state->ops.empty()) {
        PendingSync entry = std::move(state->ops.front());
        state->ops.pop_front();
        unsigned w = wordInLine(entry.op.addr);
        if (line.wstate[w] == WordState::Registered) {
            // A racing data registration took the word again before
            // this op could perform: reclaim once more.
            issueSyncReclaim(line, line_addr,
                             static_cast<WordMask>(1u << w));
            keep.push_back(std::move(entry));
            continue;
        }
        performAtomic(line, entry.op, entry.requestor,
                      std::move(entry.reply));
    }
    if (keep.empty() && state->requested == 0)
        _pendingSyncs.erase(line_addr);
    else
        state->ops = std::move(keep);
}

// ---------------------------------------------------------------------
// Test hooks
// ---------------------------------------------------------------------

NodeId
DenovoL2Bank::ownerOf(Addr addr)
{
    CacheLine *line = _array.lookup(lineAlign(addr));
    if (!line)
        return kNoNode;
    unsigned w = wordInLine(addr);
    if (line->wstate[w] != WordState::Registered)
        return kNoNode;
    return line->owner[w];
}

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

void
DenovoL2Bank::describeProtocol(ControllerSnapshot &snap) const
{
    snap.gauge("recalls", _recalls.size());
    snap.gauge("pending_syncs", _pendingSyncs.size());
    _fetches.forEach([&](Addr line_addr, const FetchEntry &entry) {
        std::ostringstream os;
        os << "fetch line 0x" << std::hex << line_addr << std::dec
           << " waiters=" << entry.waiters.size()
           << " dramDone=" << entry.dramDone;
        snap.detail.push_back(os.str());
    });
    _recalls.forEachSorted([&](Addr line_addr,
                               const RecallState &state) {
        std::ostringstream os;
        os << "recall line 0x" << std::hex << line_addr
           << " outstanding=0x" << state.outstanding << std::dec
           << " deferred=" << state.deferred.size()
           << " blockedFetches=" << state.blockedFetches.size();
        snap.detail.push_back(os.str());
    });
}

void
DenovoL2Bank::checkProtocol(std::vector<std::string> &out) const
{
    _array.forEachValid([&](const CacheLine &line) {
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            if (line.wstate[w] != WordState::Registered)
                continue;
            NodeId owner = line.owner[w];
            if (owner < 0 ||
                static_cast<std::size_t>(owner) >= _l1s.size() ||
                _l1s[static_cast<std::size_t>(owner)] == nullptr) {
                std::ostringstream os;
                os << name() << ": word 0x" << std::hex
                   << (line.addr + w * kWordBytes) << std::dec
                   << " registered to invalid node " << owner;
                out.push_back(os.str());
            }
        }
    });
}

void
DenovoL2Bank::forEachRegisteredWord(
    const std::function<void(Addr, NodeId)> &fn) const
{
    _array.forEachValid([&](const CacheLine &line) {
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            if (line.wstate[w] == WordState::Registered)
                fn(line.addr + w * kWordBytes, line.owner[w]);
        }
    });
}

void
DenovoL2Bank::debugSetOwner(Addr addr, NodeId owner)
{
    CacheLine *line = _array.lookup(lineAlign(addr));
    if (!line) {
        line = _array.findVictim(lineAlign(addr));
        _array.install(*line, lineAlign(addr));
    }
    unsigned w = wordInLine(addr);
    line->wstate[w] = WordState::Registered;
    line->owner[w] = static_cast<std::int16_t>(owner);
}

} // namespace nosync
