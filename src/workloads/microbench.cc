#include "workloads/microbench.hh"

#include <algorithm>
#include <span>
#include <sstream>

#include "sim/logging.hh"

namespace nosync
{

namespace
{

/**
 * Fill @p addrs with the addresses of one warp-coalesced access round:
 * thread t touches word round * addrs.size() + t past @p base.
 */
void
roundAddrs(std::span<Addr> addrs, Addr base, unsigned round)
{
    Addr first = static_cast<Addr>(round) * addrs.size();
    for (std::size_t t = 0; t < addrs.size(); ++t)
        addrs[t] = base + (first + t) * kWordBytes;
}

} // namespace

// ---------------------------------------------------------------------
// MutexBench
// ---------------------------------------------------------------------

MutexBench::MutexBench(MutexKind kind, Scope scope,
                       MicrobenchParams params)
    : _kind(kind), _scope(scope), _params(params)
{
}

std::string
MutexBench::name() const
{
    std::string base;
    switch (_kind) {
      case MutexKind::FetchAdd:
        base = "FAM";
        break;
      case MutexKind::Sleep:
        base = "SLM";
        break;
      case MutexKind::Spin:
        base = "SPM";
        break;
      case MutexKind::SpinBackoff:
        base = "SPMBO";
        break;
    }
    switch (_scope) {
      case Scope::Local:
        return base + "_L";
      case Scope::Device:
        return base + "_D";
      case Scope::Global:
        break;
    }
    return base + "_G";
}

unsigned
MutexBench::numGroups() const
{
    switch (_scope) {
      case Scope::Local:
        return _numCus;
      case Scope::Device:
        return _numDevices;
      case Scope::Global:
        break;
    }
    return 1;
}

void
MutexBench::init(WorkloadEnv &env)
{
    _numCus = env.numCus();
    _numDevices = env.numDevices();
    _cusPerDevice = env.cusPerDevice();
    unsigned groups = numGroups();
    _mutexes.clear();
    _data.clear();
    _roInput.clear();
    for (unsigned g = 0; g < groups; ++g) {
        MutexAddrs mutex;
        mutex.lock = env.alloc(kLineBytes);
        mutex.serving = mutex.lock + kWordBytes;
        _mutexes.push_back(mutex);
        Addr bytes = static_cast<Addr>(_params.footprintWords()) *
                     kWordBytes;
        _data.push_back(env.alloc(bytes));
        // Read-only input consumed inside the critical section: the
        // increment amount per word. DD re-fetches these after every
        // acquire; DD+RO keeps them cached.
        Addr ro = env.alloc(bytes);
        _roInput.push_back(ro);
        for (unsigned w = 0; w < _params.footprintWords(); ++w)
            env.writeInit(ro + Addr(w) * kWordBytes, 1);
        env.declareReadOnly(ro, bytes);
    }
}

KernelInfo
MutexBench::kernelInfo(unsigned) const
{
    return {_numCus * _params.tbsPerCu};
}

SimTask
MutexBench::tbMain(TbContext &ctx)
{
    unsigned group = 0;
    if (_scope == Scope::Local)
        group = ctx.cu();
    else if (_scope == Scope::Device)
        group = ctx.cu() / _cusPerDevice;
    Scope scope = _scope;
    MutexAddrs mutex = _mutexes[group];
    Addr data = _data[group];

    Addr ro = _roInput[group];

    // One warp's buffers, reused by every round. ro_vals and values
    // are live together, so they stay apart.
    std::vector<Addr> addrs(_params.threads);
    std::vector<std::uint32_t> ro_vals(_params.threads);
    std::vector<std::uint32_t> values(_params.threads);

    for (unsigned iter = 0; iter < _params.iterations; ++iter) {
        MutexTicket ticket;
        co_await mutexLock(ctx, mutex, _kind, scope, ticket);
        // Critical section (10 Ld & 10 St per thread): every thread
        // loads its read-only increment, then read-modify-writes its
        // shared data word; one coalesced warp access per round.
        for (unsigned round = 0; round < _params.workWords; ++round) {
            roundAddrs(addrs, ro, round);
            co_await ctx.loadMany(addrs, ro_vals);
            roundAddrs(addrs, data, round);
            co_await ctx.loadMany(addrs, values);
            for (std::size_t i = 0; i < values.size(); ++i)
                values[i] += ro_vals[i];
            co_await ctx.storeMany(addrs, values);
        }
        co_await mutexUnlock(ctx, mutex, _kind, scope, ticket);
    }
}

std::vector<std::string>
MutexBench::check(WorkloadEnv &env)
{
    std::vector<std::string> failures;
    unsigned groups = numGroups();
    unsigned tbs_per_group =
        (_numCus / groups) * _params.tbsPerCu;
    std::uint32_t expected = tbs_per_group * _params.iterations;
    for (unsigned g = 0; g < groups; ++g) {
        for (unsigned w = 0; w < _params.footprintWords(); ++w) {
            std::uint32_t got =
                env.debugRead(_data[g] + Addr(w) * kWordBytes);
            if (got != expected) {
                std::ostringstream os;
                os << name() << ": group " << g << " word " << w
                   << " = " << got << ", expected " << expected
                   << " (mutual exclusion or visibility violated)";
                failures.push_back(os.str());
                if (failures.size() > 8)
                    return failures;
            }
        }
    }
    return failures;
}

// ---------------------------------------------------------------------
// SemaphoreBench
// ---------------------------------------------------------------------

SemaphoreBench::SemaphoreBench(bool backoff, MicrobenchParams params)
    : _backoff(backoff), _params(params)
{
    panic_if(_params.tbsPerCu != kReaders + 1,
             "semaphore benchmark needs 1 writer + 2 readers per CU");
}

std::string
SemaphoreBench::name() const
{
    return _backoff ? "SSBO_L" : "SS_L";
}

void
SemaphoreBench::init(WorkloadEnv &env)
{
    _numCus = env.numCus();
    _sems.clear();
    _data.clear();
    unsigned half_words = _params.footprintWords();
    for (unsigned cu = 0; cu < _numCus; ++cu) {
        SemaphoreAddrs sem;
        sem.count = env.alloc(kLineBytes);
        env.writeInit(sem.count, kReaders);
        _sems.push_back(sem);

        Addr data = env.alloc(static_cast<Addr>(2) * half_words *
                              kWordBytes);
        _data.push_back(data);
        // First word of each half is a marker the writer never
        // touches.
        env.writeInit(data, 100);
        env.writeInit(data + Addr(half_words) * kWordBytes, 101);
    }
    _violations = env.alloc(
        static_cast<Addr>(_numCus * _params.tbsPerCu) * kWordBytes);
}

KernelInfo
SemaphoreBench::kernelInfo(unsigned) const
{
    return {_numCus * _params.tbsPerCu};
}

SimTask
SemaphoreBench::tbMain(TbContext &ctx)
{
    Scope scope = Scope::Local;
    SemaphoreAddrs sem = _sems[ctx.cu()];
    Addr data = _data[ctx.cu()];
    unsigned half_words = _params.footprintWords();

    // One warp's buffers, reused by every round.
    std::vector<Addr> addrs(_params.threads);
    std::vector<std::uint32_t> values(_params.threads);

    if (ctx.tbOnCu() == 0) {
        // Writer: take the whole semaphore, write iteration tag to
        // every word of both halves except the markers (20 St/thr).
        for (unsigned iter = 0; iter < _params.iterations; ++iter) {
            co_await semaphoreWriterWait(ctx, sem, kReaders, scope,
                                         _backoff);
            std::fill(values.begin(), values.end(), iter + 1);
            for (unsigned half = 0; half < 2; ++half) {
                Addr base = data + Addr(half) * half_words *
                                       kWordBytes;
                for (unsigned round = 0; round < _params.workWords;
                     ++round) {
                    roundAddrs(addrs, base, round);
                    // Round 0 skips thread 0's word: the marker.
                    std::size_t skip = round == 0 ? 1 : 0;
                    co_await ctx.storeMany(
                        std::span(addrs).subspan(skip),
                        std::span(values).subspan(skip));
                }
            }
            co_await semaphoreWriterPost(ctx, sem, kReaders, scope);
        }
        co_return;
    }

    // Reader: take one unit, read this reader's half (10 Ld/thr) and
    // verify the writer was excluded (all words carry one tag).
    unsigned half = ctx.tbOnCu() - 1;
    Addr base = data + Addr(half) * half_words * kWordBytes;
    std::uint32_t violations = 0;
    for (unsigned iter = 0; iter < _params.iterations; ++iter) {
        co_await semaphoreReaderWait(ctx, sem, scope, _backoff);
        bool first = true;
        std::uint32_t tag = 0;
        for (unsigned round = 0; round < _params.workWords; ++round) {
            roundAddrs(addrs, base, round);
            co_await ctx.loadMany(addrs, values);
            for (std::size_t i = 0; i < values.size(); ++i) {
                unsigned w = round * _params.threads +
                             static_cast<unsigned>(i);
                if (w == 0)
                    continue; // marker
                if (first) {
                    tag = values[i];
                    first = false;
                } else if (values[i] != tag) {
                    ++violations;
                }
            }
        }
        co_await semaphorePost(ctx, sem, scope);
    }
    co_await ctx.store(_violations +
                           Addr(ctx.tbGlobal()) * kWordBytes,
                       violations);
}

std::vector<std::string>
SemaphoreBench::check(WorkloadEnv &env)
{
    std::vector<std::string> failures;
    unsigned half_words = _params.footprintWords();
    for (unsigned cu = 0; cu < _numCus; ++cu) {
        for (unsigned half = 0; half < 2; ++half) {
            Addr base = _data[cu] + Addr(half) * half_words *
                                        kWordBytes;
            std::uint32_t marker = env.debugRead(base);
            if (marker != 100 + half) {
                std::ostringstream os;
                os << name() << ": CU " << cu << " half " << half
                   << " marker clobbered (" << marker << ")";
                failures.push_back(os.str());
            }
            for (unsigned w = 1; w < half_words; ++w) {
                std::uint32_t got =
                    env.debugRead(base + Addr(w) * kWordBytes);
                if (got != _params.iterations) {
                    std::ostringstream os;
                    os << name() << ": CU " << cu << " half " << half
                       << " word " << w << " = " << got
                       << ", expected " << _params.iterations;
                    failures.push_back(os.str());
                    if (failures.size() > 8)
                        return failures;
                }
            }
        }
    }
    // Reader-observed atomicity violations.
    for (unsigned tb = 0; tb < _numCus * _params.tbsPerCu; ++tb) {
        unsigned cu = tb % _numCus;
        unsigned on_cu = tb / _numCus;
        if (on_cu == 0)
            continue; // writers do not report
        std::uint32_t got = env.debugRead(
            _violations + Addr(tb) * kWordBytes);
        if (got != 0) {
            std::ostringstream os;
            os << name() << ": reader TB " << tb << " (CU " << cu
               << ") observed " << got
               << " mixed-tag words (reader-writer exclusion "
                  "violated)";
            failures.push_back(os.str());
        }
    }
    return failures;
}

// ---------------------------------------------------------------------
// TreeBarrierBench
// ---------------------------------------------------------------------

TreeBarrierBench::TreeBarrierBench(bool local_exchange,
                                   MicrobenchParams params)
    : _localExchange(local_exchange), _params(params)
{
}

std::string
TreeBarrierBench::name() const
{
    return _localExchange ? "TBEX_LG" : "TB_LG";
}

void
TreeBarrierBench::init(WorkloadEnv &env)
{
    _numCus = env.numCus();
    _numTbs = _numCus * _params.tbsPerCu;
    _localBarriers.clear();
    for (unsigned cu = 0; cu < _numCus; ++cu) {
        BarrierAddrs barrier;
        barrier.count = env.alloc(kLineBytes);
        barrier.sense = barrier.count + kWordBytes;
        _localBarriers.push_back(barrier);
    }
    _globalBarrier.count = env.alloc(kLineBytes);
    _globalBarrier.sense = _globalBarrier.count + kWordBytes;

    _chunks = env.alloc(static_cast<Addr>(_numTbs) *
                        _params.footprintWords() * kWordBytes);
    _results = env.alloc(static_cast<Addr>(_numTbs) * kWordBytes);
}

Addr
TreeBarrierBench::chunkAddr(unsigned tb_global, unsigned word) const
{
    return _chunks + (static_cast<Addr>(tb_global) *
                          _params.footprintWords() +
                      word) * kWordBytes;
}

KernelInfo
TreeBarrierBench::kernelInfo(unsigned) const
{
    return {_numTbs};
}

SimTask
TreeBarrierBench::tbMain(TbContext &ctx)
{
    BarrierAddrs local = _localBarriers[ctx.cu()];
    std::uint32_t local_epoch = 0;
    std::uint32_t global_epoch = 0;
    std::uint32_t checksum = 0;
    unsigned local_participants = _params.tbsPerCu;
    Addr own_chunk = chunkAddr(ctx.tbGlobal(), 0);
    // One warp's buffers, reused by every round.
    std::vector<Addr> addrs(_params.threads);
    std::vector<std::uint32_t> values(_params.threads);

    for (unsigned iter = 0; iter < _params.iterations; ++iter) {
        // Compute phase: increment every word of this TB's chunk.
        for (unsigned round = 0; round < _params.workWords; ++round) {
            roundAddrs(addrs, own_chunk, round);
            co_await ctx.loadMany(addrs, values);
            for (std::uint32_t &v : values)
                ++v;
            co_await ctx.storeMany(addrs, values);
        }

        co_await barrierJoin(ctx, local, local_participants,
                             local_epoch++, Scope::Local);

        if (_localExchange) {
            // Local exchange: read a same-CU sibling's chunk before
            // the global phase (visible through the local barrier).
            unsigned sibling_on_cu =
                (ctx.tbOnCu() + 1) % _params.tbsPerCu;
            unsigned sibling =
                sibling_on_cu * ctx.numCus() + ctx.cu();
            for (unsigned round = 0; round < _params.workWords;
                 ++round) {
                roundAddrs(addrs, chunkAddr(sibling, 0), round);
                co_await ctx.loadMany(addrs, values);
                for (std::uint32_t v : values)
                    checksum += v;
            }
            co_await barrierJoin(ctx, local, local_participants,
                                 local_epoch++, Scope::Local);
        }

        // One representative per CU joins the global barrier.
        if (ctx.tbOnCu() == 0) {
            co_await barrierJoin(ctx, _globalBarrier, ctx.numCus(),
                                 global_epoch++, Scope::Global);
        }
        co_await barrierJoin(ctx, local, local_participants,
                             local_epoch++, Scope::Local);

        // Cross-CU exchange: read a chunk written on another CU.
        // HRF-Indirect transitivity (local -> global -> local) makes
        // iteration iter's writes visible, so each word reads
        // exactly iter+1.
        unsigned partner_cu = (ctx.cu() + 1 + (iter % (_numCus - 1))) %
                              _numCus;
        unsigned partner = ctx.tbOnCu() * ctx.numCus() + partner_cu;
        for (unsigned round = 0; round < _params.workWords; ++round) {
            roundAddrs(addrs, chunkAddr(partner, 0), round);
            co_await ctx.loadMany(addrs, values);
            for (std::uint32_t v : values)
                checksum += v;
        }

        // Keep everyone in step before the next compute phase
        // overwrites the chunks being read.
        co_await barrierJoin(ctx, local, local_participants,
                             local_epoch++, Scope::Local);
        if (ctx.tbOnCu() == 0) {
            co_await barrierJoin(ctx, _globalBarrier, ctx.numCus(),
                                 global_epoch++, Scope::Global);
        }
        co_await barrierJoin(ctx, local, local_participants,
                             local_epoch++, Scope::Local);
    }

    co_await ctx.store(_results + Addr(ctx.tbGlobal()) * kWordBytes,
                       checksum);
}

std::vector<std::string>
TreeBarrierBench::check(WorkloadEnv &env)
{
    std::vector<std::string> failures;

    for (unsigned tb = 0; tb < _numTbs; ++tb) {
        for (unsigned w = 0; w < _params.footprintWords(); ++w) {
            std::uint32_t got = env.debugRead(chunkAddr(tb, w));
            if (got != _params.iterations) {
                std::ostringstream os;
                os << name() << ": chunk " << tb << " word " << w
                   << " = " << got << ", expected "
                   << _params.iterations;
                failures.push_back(os.str());
                if (failures.size() > 8)
                    return failures;
            }
        }
    }

    std::uint32_t per_iter_reads = _localExchange ? 2 : 1;
    std::uint64_t expected = 0;
    for (unsigned iter = 0; iter < _params.iterations; ++iter) {
        expected += static_cast<std::uint64_t>(iter + 1) *
                    _params.footprintWords() * per_iter_reads;
    }
    for (unsigned tb = 0; tb < _numTbs; ++tb) {
        std::uint32_t got =
            env.debugRead(_results + Addr(tb) * kWordBytes);
        if (got != static_cast<std::uint32_t>(expected)) {
            std::ostringstream os;
            os << name() << ": TB " << tb << " exchange checksum "
               << got << ", expected " << expected
               << " (stale data crossed a barrier)";
            failures.push_back(os.str());
        }
    }
    return failures;
}

} // namespace nosync
