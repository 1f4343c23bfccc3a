/**
 * @file
 * Execution context of one simulated thread block.
 *
 * A TbContext identifies the thread block (kernel, global index, CU,
 * index on its CU) and exposes awaitable memory operations that drive
 * the CU's L1 controller. One context models one thread block's
 * coalesced memory instruction stream; latency is hidden across the
 * thread blocks resident on a CU, as on real hardware.
 */

#ifndef GPU_TB_CONTEXT_HH
#define GPU_TB_CONTEXT_HH

#include <coroutine>
#include <span>
#include <sstream>
#include <string>

#include "analysis/race_detector.hh"
#include "coherence/l1_controller.hh"
#include "energy/energy_model.hh"
#include "gpu/sim_task.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/tb_scheduler.hh"
#include "trace/trace_sink.hh"

namespace nosync
{

/** Thread-block identification and awaitable memory interface. */
class TbContext
{
  public:
    TbContext(EventQueue &eq, L1Controller &l1, EnergyModel &energy,
              Rng rng, unsigned kernel, unsigned tb_global,
              unsigned cu, unsigned tb_on_cu, unsigned num_cus,
              unsigned tbs_per_cu, trace::TraceSink *trace = nullptr,
              analysis::RaceDetector *races = nullptr,
              unsigned race_slot = analysis::kNoRaceSlot,
              TbScheduler *sched = nullptr)
        : _eq(eq), _l1(l1), _energy(energy), _rng(rng),
          _kernel(kernel), _tbGlobal(tb_global), _cu(cu),
          _tbOnCu(tb_on_cu), _numCus(num_cus), _tbsPerCu(tbs_per_cu),
          _trace(trace), _races(races), _raceSlot(race_slot),
          _sched(sched)
    {}

    unsigned kernel() const { return _kernel; }
    unsigned tbGlobal() const { return _tbGlobal; }
    unsigned cu() const { return _cu; }
    unsigned tbOnCu() const { return _tbOnCu; }
    unsigned numCus() const { return _numCus; }
    unsigned tbsPerCu() const { return _tbsPerCu; }
    Rng &rng() { return _rng; }
    L1Controller &l1() { return _l1; }
    Tick now() const { return _eq.now(); }

    // Transaction tracing ---------------------------------------------

    /**
     * Open a traced transaction for an access this TB issues now.
     * Returns 0 when tracing is disabled; endTxn(0) is a no-op, so
     * awaitables call the pair unconditionally.
     */
    std::uint64_t
    beginTxn(trace::TxnClass cls, Addr addr)
    {
        if (!_trace)
            return 0;
        return _trace->beginTxn(cls, _eq.now(),
                                static_cast<NodeId>(_cu), addr);
    }

    /** Close a traced transaction opened by beginTxn(). */
    void
    endTxn(std::uint64_t txn)
    {
        if (txn != 0)
            _trace->endTxn(txn, _eq.now());
    }

    /** Record a sync-point instant at this TB's CU (tracing on). */
    void
    recordSync(trace::Phase phase, const SyncOp &op)
    {
        // aux encodes the scope; values for the original two scopes
        // predate Scope::Device, so Device takes the next free code.
        std::uint16_t aux = 0;
        if (op.scope == Scope::Global)
            aux = 1;
        else if (op.scope == Scope::Device)
            aux = 2;
        _trace->record(_eq.now(), phase, _l1.node(), op.addr, 0, aux);
    }

    /** Latency class of a synchronization access. */
    static trace::TxnClass
    syncClass(const SyncOp &op)
    {
        bool device = op.scope == Scope::Device;
        switch (op.sem) {
          case SyncSemantics::Acquire:
            return device ? trace::TxnClass::SyncAcquireDevice
                          : trace::TxnClass::SyncAcquire;
          case SyncSemantics::Release:
            return device ? trace::TxnClass::SyncReleaseDevice
                          : trace::TxnClass::SyncRelease;
          case SyncSemantics::AcquireRelease:
            break;
        }
        return device ? trace::TxnClass::SyncAcqRelDevice
                      : trace::TxnClass::SyncAcqRel;
    }

    // Race checking ---------------------------------------------------

    /** Clock slot assigned by the race detector (kNoRaceSlot = off). */
    unsigned raceSlot() const { return _raceSlot; }

    /** Record a data load issued now (race checking on). */
    void
    noteDataRead(Addr addr)
    {
        if (_races)
            _races->dataRead(_raceSlot, addr, _eq.now());
    }

    /** Record a data store issued now (race checking on). */
    void
    noteDataWrite(Addr addr)
    {
        if (_races)
            _races->dataWrite(_raceSlot, addr, _eq.now());
    }

    // Wait-state tracking (hang diagnostics) --------------------------

    /** What kind of awaiter a suspended TB is parked in. */
    enum class WaitKind : std::uint8_t
    {
        Load,
        Store,
        Sync,
        Delay,
    };

    /**
     * Record what this TB's coroutine is suspended on: the awaiter
     * kind, its (first) address, and its word or cycle count. Nothing
     * is formatted here; waitSummary() renders the record only when a
     * hang report asks for it.
     */
    void
    beginWait(WaitKind kind, Addr addr, std::uint64_t count = 0)
    {
        _wait.kind = kind;
        _wait.addr = addr;
        _wait.count = count;
        _waitSince = _eq.now();
        _waiting = true;
    }

    /** Record a suspension on the synchronization access @p op. */
    void
    beginWait(const SyncOp &op)
    {
        _wait.op = op;
        beginWait(WaitKind::Sync, op.addr);
    }

    /** Clear the wait record just before the coroutine resumes. */
    void endWait() { _waiting = false; }

    /** Mark the coroutine as run to completion. */
    void markDone() { _done = true; }

    bool done() const { return _done; }
    bool waiting() const { return _waiting; }

    /** One-line description of the suspension, for HangReport. */
    std::string
    waitSummary() const
    {
        std::ostringstream os;
        os << "kernel " << _kernel << " tb " << _tbGlobal << " (cu "
           << _cu << "): ";
        if (_done)
            os << "completed";
        else if (!_waiting)
            os << "runnable (between awaits)";
        else
            os << "awaiting " << describeWait() << " since tick "
               << _waitSince;
        return os.str();
    }

    // Scheduling hook -------------------------------------------------

    /**
     * Route an operation's issue thunk through the attached scheduler
     * (model checking), or run it inline when none is attached — the
     * normal path, which stays branch-only so unscheduled runs are
     * bitwise identical. The thunk performs the race/trace hooks and
     * the L1 call, so under a scheduler those fire at the tick the
     * operation actually issues.
     */
    template <typename Fn>
    void
    issueOp(Addr addr, TbOpKind kind, Fn &&fn)
    {
        if (_sched == nullptr) {
            fn();
            return;
        }
        TbOp op;
        op.kernel = _kernel;
        op.tbGlobal = _tbGlobal;
        op.cu = _cu;
        op.addr = addr;
        op.kind = kind;
        _sched->issue(op, std::function<void()>(std::forward<Fn>(fn)));
    }

    /** TbOpKind of a synchronization access (scheduler footprint). */
    static TbOpKind
    syncOpKind(const SyncOp &op)
    {
        switch (op.func) {
          case AtomicFunc::Load:
            return TbOpKind::AtomicLoad;
          case AtomicFunc::Store:
            return TbOpKind::AtomicStore;
          case AtomicFunc::FetchAdd:
          case AtomicFunc::Exchange:
          case AtomicFunc::CompareSwap:
            break;
        }
        return TbOpKind::AtomicRmw;
    }

    /**
     * Awaiter of a batch of independent loads (a coalesced warp):
     * values[i] receives the word at addrs[i]. A plain load is a batch
     * of one over the awaiter's own word, which await_resume returns.
     */
    class LoadAwaiter
    {
      public:
        /** A warp over caller-owned spans, kept until the await ends. */
        LoadAwaiter(TbContext *ctx, std::span<const Addr> addrs,
                    std::span<std::uint32_t> values)
            : _ctx(ctx), _addrs(addrs.data()), _values(values.data()),
              _count(static_cast<std::uint32_t>(addrs.size()))
        {}

        /** One word. */
        LoadAwaiter(TbContext *ctx, Addr addr)
            : _ctx(ctx), _addrs(&_addr), _values(&_value), _count(1),
              _addr(addr)
        {}

        // A one-word awaiter points into itself: it never moves.
        LoadAwaiter(const LoadAwaiter &) = delete;
        LoadAwaiter &operator=(const LoadAwaiter &) = delete;

        bool await_ready() { return _count == 0; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            _ctx->beginWait(WaitKind::Load, _addrs[0], _count);
            // The whole coalesced batch issues as one scheduled
            // quantum: a warp's loads are not interleavable.
            _ctx->issueOp(_addrs[0], TbOpKind::Load, [this, h] {
                std::span<const Addr> addrs(_addrs, _count);
                for (Addr addr : addrs)
                    _ctx->noteDataRead(addr);
                // One transaction spans the whole batch: its latency
                // is the slowest constituent load.
                WarpBatch &batch =
                    _ctx->beginAccess(trace::TxnClass::Load, _addrs[0], h);
                _ctx->_l1.loadMany(addrs, {_values, _count}, batch);
            });
        }

        /** The loaded word of a one-word load (0 after a warp). */
        std::uint32_t await_resume() { return _value; }

      private:
        // Pointers and a count rather than spans keep the awaiter, which
        // sits in the coroutine frame at every await site, small.
        TbContext *_ctx;
        const Addr *_addrs;
        std::uint32_t *_values;
        std::uint32_t _count;
        std::uint32_t _value = 0;
        Addr _addr = 0;
    };

    /**
     * Awaiter of a batch of independent stores (a coalesced warp) of
     * values[i] to addrs[i]; it completes when every store retired
     * (it may still be buffered). A plain store is a batch of one over
     * the awaiter's own word.
     */
    class StoreAwaiter
    {
      public:
        /** A warp over caller-owned spans, kept until the await ends. */
        StoreAwaiter(TbContext *ctx, std::span<const Addr> addrs,
                     std::span<const std::uint32_t> values)
            : _ctx(ctx), _addrs(addrs.data()), _values(values.data()),
              _count(static_cast<std::uint32_t>(addrs.size()))
        {}

        /** One word. */
        StoreAwaiter(TbContext *ctx, Addr addr, std::uint32_t value)
            : _ctx(ctx), _addrs(&_addr), _values(&_value), _count(1),
              _value(value), _addr(addr)
        {}

        // A one-word awaiter points into itself: it never moves.
        StoreAwaiter(const StoreAwaiter &) = delete;
        StoreAwaiter &operator=(const StoreAwaiter &) = delete;

        bool await_ready() { return _count == 0; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            _ctx->beginWait(WaitKind::Store, _addrs[0], _count);
            _ctx->issueOp(_addrs[0], TbOpKind::Store, [this, h] {
                std::span<const Addr> addrs(_addrs, _count);
                for (Addr addr : addrs)
                    _ctx->noteDataWrite(addr);
                WarpBatch &batch =
                    _ctx->beginAccess(trace::TxnClass::Store, _addrs[0], h);
                _ctx->_l1.storeMany(addrs, {_values, _count}, batch);
            });
        }

        void await_resume() {}

      private:
        TbContext *_ctx;
        const Addr *_addrs;
        const std::uint32_t *_values;
        std::uint32_t _count;
        std::uint32_t _value = 0;
        Addr _addr = 0;
    };

    /** Awaitable data load. */
    LoadAwaiter load(Addr addr) { return {this, addr}; }

    /**
     * Awaitable batch of independent loads (a coalesced warp):
     * @p values[i] receives the word at @p addrs[i]. Both spans are
     * storage the caller owns and keeps until the await returns; the
     * awaiter copies neither.
     */
    LoadAwaiter
    loadMany(std::span<const Addr> addrs, std::span<std::uint32_t> values)
    {
        return {this, addrs, values};
    }

    /** Awaitable data store (completes when accepted/retired). */
    StoreAwaiter
    store(Addr addr, std::uint32_t value)
    {
        return {this, addr, value};
    }

    /**
     * Awaitable batch of independent stores (a coalesced warp) of
     * @p values[i] to @p addrs[i], over caller-owned storage as in
     * loadMany.
     */
    StoreAwaiter
    storeMany(std::span<const Addr> addrs,
              std::span<const std::uint32_t> values)
    {
        return {this, addrs, values};
    }

    /** Awaitable synchronization (atomic) access. */
    auto
    atomic(SyncOp op)
    {
        // Stamp the issuing TB's clock slot so the coherence-side
        // perform sites can attribute the atomic to this TB.
        op.tb = _raceSlot;
        struct Awaiter
        {
            TbContext *ctx;
            SyncOp op;
            std::uint32_t value = 0;
            std::uint64_t txn = 0;

            bool await_ready() { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                ctx->beginWait(op);
                ctx->issueOp(op.addr, syncOpKind(op), [this, h] {
                    if (ctx->_trace) {
                        txn = ctx->beginTxn(syncClass(op), op.addr);
                        if (op.isAcquire())
                            ctx->recordSync(
                                trace::Phase::TbSyncAcquire, op);
                        if (op.isRelease())
                            ctx->recordSync(
                                trace::Phase::TbSyncRelease, op);
                    }
                    ctx->_l1.sync(op, [this, h](std::uint32_t v) {
                        value = v;
                        ctx->resumeAfter(txn, h);
                    });
                });
            }

            std::uint32_t await_resume() { return value; }
        };
        return Awaiter{this, op};
    }

    /** Awaitable delay (compute work or synchronization backoff). */
    auto
    wait(Cycles cycles)
    {
        struct Awaiter
        {
            TbContext *ctx;
            Cycles cycles;

            bool await_ready() { return cycles == 0; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                ctx->beginWait(WaitKind::Delay, 0, cycles);
                ctx->_eq.scheduleIn(cycles,
                                    [c = ctx, h] {
                                        c->endWait();
                                        h.resume();
                                    },
                                    EventPriority::CuIssue);
            }

            void await_resume() {}
        };
        return Awaiter{this, cycles};
    }

    /** Scratchpad accesses: @p words word accesses, 1 cycle. */
    auto
    scratch(unsigned words)
    {
        _energy.scratchAccess(words);
        return wait(1);
    }

    // Convenience sync-op builders ------------------------------------

    SyncOp
    atomicLoad(Addr addr, Scope scope) const
    {
        SyncOp op;
        op.func = AtomicFunc::Load;
        op.addr = addr;
        op.scope = scope;
        op.sem = SyncSemantics::Acquire;
        return op;
    }

    SyncOp
    atomicStore(Addr addr, std::uint32_t value, Scope scope) const
    {
        SyncOp op;
        op.func = AtomicFunc::Store;
        op.addr = addr;
        op.operand = value;
        op.scope = scope;
        op.sem = SyncSemantics::Release;
        return op;
    }

    SyncOp
    fetchAdd(Addr addr, std::uint32_t amount, Scope scope,
             SyncSemantics sem = SyncSemantics::AcquireRelease) const
    {
        SyncOp op;
        op.func = AtomicFunc::FetchAdd;
        op.addr = addr;
        op.operand = amount;
        op.scope = scope;
        op.sem = sem;
        return op;
    }

    SyncOp
    compareSwap(Addr addr, std::uint32_t expected,
                std::uint32_t desired, Scope scope,
                SyncSemantics sem = SyncSemantics::AcquireRelease)
        const
    {
        SyncOp op;
        op.func = AtomicFunc::CompareSwap;
        op.addr = addr;
        op.compare = expected;
        op.operand = desired;
        op.scope = scope;
        op.sem = sem;
        return op;
    }

    SyncOp
    exchange(Addr addr, std::uint32_t desired, Scope scope,
             SyncSemantics sem = SyncSemantics::AcquireRelease) const
    {
        SyncOp op;
        op.func = AtomicFunc::Exchange;
        op.addr = addr;
        op.operand = desired;
        op.scope = scope;
        op.sem = sem;
        return op;
    }

  private:
    /** Close @p txn and the wait record, then resume @p h. */
    void
    resumeAfter(std::uint64_t txn, std::coroutine_handle<> h)
    {
        endTxn(txn);
        endWait();
        h.resume();
    }

    /**
     * Start the data load or store issuing now: open its trace
     * transaction and arm _access to resume @p h after its last word.
     * A TB has at most one data access in flight, so one WarpBatch per
     * TB serves them all and the awaiters stay small.
     */
    WarpBatch &
    beginAccess(trace::TxnClass cls, Addr addr, std::coroutine_handle<> h)
    {
        panic_if(_access.remaining != 0, "tb ", _tbGlobal,
                 " issued a data access with one in flight");
        _accessTxn = beginTxn(cls, addr);
        _access.done = [this, h] { resumeAfter(_accessTxn, h); };
        return _access;
    }

    /** The hang-report text of the current wait record. */
    std::string
    describeWait() const
    {
        std::ostringstream os;
        switch (_wait.kind) {
          case WaitKind::Load:
          case WaitKind::Store:
            os << (_wait.kind == WaitKind::Load ? "load" : "store");
            if (_wait.count != 1)
                os << "Many of " << _wait.count << " words at";
            os << " " << describeAddr(_wait.addr);
            break;
          case WaitKind::Sync:
            os << describeSync(_wait.op);
            break;
          case WaitKind::Delay:
            os << "delay of " << _wait.count << " cycles";
            break;
        }
        return os.str();
    }

    static std::string
    describeAddr(Addr addr)
    {
        std::ostringstream os;
        os << "0x" << std::hex << addr;
        return os.str();
    }

    static std::string
    describeSync(const SyncOp &op)
    {
        const char *func = "?";
        switch (op.func) {
          case AtomicFunc::Load: func = "atomic-load"; break;
          case AtomicFunc::Store: func = "atomic-store"; break;
          case AtomicFunc::FetchAdd: func = "fetch-add"; break;
          case AtomicFunc::Exchange: func = "exchange"; break;
          case AtomicFunc::CompareSwap: func = "compare-swap"; break;
        }
        const char *scope = "global";
        if (op.scope == Scope::Local)
            scope = "local";
        else if (op.scope == Scope::Device)
            scope = "device";
        std::ostringstream os;
        os << func << " " << describeAddr(op.addr) << " (" << scope
           << " scope)";
        return os.str();
    }

    EventQueue &_eq;
    L1Controller &_l1;
    EnergyModel &_energy;
    Rng _rng;
    unsigned _kernel;
    unsigned _tbGlobal;
    unsigned _cu;
    unsigned _tbOnCu;
    unsigned _numCus;
    unsigned _tbsPerCu;
    /** Observability sink; nullptr when tracing is disabled. */
    trace::TraceSink *_trace = nullptr;
    /** Race detector; nullptr when race checking is disabled. */
    analysis::RaceDetector *_races = nullptr;
    /** This TB's clock slot in the detector. */
    unsigned _raceSlot = analysis::kNoRaceSlot;
    /** Exploration scheduler; nullptr outside model checking. */
    TbScheduler *_sched = nullptr;
    /** The data access in flight (beginAccess) and its transaction. */
    WarpBatch _access;
    std::uint64_t _accessTxn = 0;

    /** What the coroutine is suspended on (hang diagnostics). */
    struct WaitRecord
    {
        WaitKind kind = WaitKind::Load;
        Addr addr = 0;
        /** Words (load / store) or cycles (delay). */
        std::uint64_t count = 0;
        /** The access itself (sync waits only). */
        SyncOp op;
    };
    WaitRecord _wait;
    Tick _waitSince = 0;
    bool _waiting = false;
    bool _done = false;
};

} // namespace nosync

#endif // GPU_TB_CONTEXT_HH
