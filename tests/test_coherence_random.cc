/**
 * @file
 * Property-based coherence tests: randomized well-synchronized
 * programs whose invariants fail if any protocol ever returns a value
 * not permitted by the happens-before relation.
 *
 * Two generators:
 *  - RandomLockedRegions: thread blocks take randomly chosen locks
 *    (global and CU-local) and read-modify-write the protected
 *    region. Within a critical section every word of the region must
 *    carry the same generation count (a stale read or lost update
 *    breaks equality), and the final counts must equal the number of
 *    critical sections executed.
 *  - RandomKernelRotation: each kernel writes random slices and the
 *    next kernel reads them from rotated thread blocks, so kernel
 *    boundary release/acquire ordering is exercised with random
 *    footprints (including partial lines and line-crossing slices).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "test_util.hh"
#include "workloads/sync_primitives.hh"

using namespace nosync;
using namespace nosync::test;

namespace
{

class RandomLockedRegions : public Workload
{
  public:
    RandomLockedRegions(std::uint64_t seed, unsigned iterations)
        : _seed(seed), _iterations(iterations)
    {}

    std::string name() const override { return "random-locks"; }

    void
    init(WorkloadEnv &env) override
    {
        _numCus = env.numCus();
        // Global regions, protected by global locks.
        for (unsigned r = 0; r < kGlobalRegions; ++r) {
            MutexAddrs lock;
            lock.lock = env.alloc(kLineBytes);
            lock.serving = lock.lock + kWordBytes;
            _globalLocks.push_back(lock);
            _globalRegions.push_back(
                env.alloc((kRegionWords + 1) * kWordBytes));
        }
        // One private region per CU, protected by a local lock.
        for (unsigned cu = 0; cu < _numCus; ++cu) {
            MutexAddrs lock;
            lock.lock = env.alloc(kLineBytes);
            lock.serving = lock.lock + kWordBytes;
            _localLocks.push_back(lock);
            _localRegions.push_back(
                env.alloc((kRegionWords + 1) * kWordBytes));
        }
        _violations =
            env.alloc(_numCus * kTbsPerCu * kWordBytes);
        _globalCsCount.assign(kGlobalRegions, 0);
        _localCsCount.assign(_numCus, 0);

        // Precompute every TB's schedule so the expected counts are
        // known up front (the schedule, not the interleaving, is
        // deterministic).
        _schedule.assign(_numCus * kTbsPerCu, {});
        Rng rng(_seed);
        for (unsigned tb = 0; tb < _numCus * kTbsPerCu; ++tb) {
            unsigned cu = tb % _numCus;
            for (unsigned i = 0; i < _iterations; ++i) {
                bool local = rng.chance(0.5);
                unsigned region = local
                                      ? cu
                                      : static_cast<unsigned>(
                                            rng.below(kGlobalRegions));
                _schedule[tb].push_back({local, region});
                if (local)
                    ++_localCsCount[cu];
                else
                    ++_globalCsCount[region];
            }
        }
    }

    KernelInfo kernelInfo(unsigned) const override
    {
        return {_numCus * kTbsPerCu};
    }

    SimTask
    tbMain(TbContext &ctx) override
    {
        std::uint32_t violations = 0;
        for (const auto &[local, region] :
             _schedule[ctx.tbGlobal()]) {
            MutexAddrs lock = local ? _localLocks[region]
                                    : _globalLocks[region];
            Addr base = local ? _localRegions[region]
                              : _globalRegions[region];
            Scope scope = local ? Scope::Local : Scope::Global;

            MutexTicket ticket;
            co_await mutexLock(ctx, lock, MutexKind::Spin, scope,
                               ticket);
            // Mutual-exclusion monitor: tag the region with our id;
            // it must still be ours at the end of the section, and
            // our own write must be immediately readable.
            Addr holder = base + kRegionWords * kWordBytes;
            co_await ctx.store(holder, ctx.tbGlobal() + 1);
            if (co_await ctx.load(holder) != ctx.tbGlobal() + 1)
                violations += 1u << 16; // read-own-write failure
            // Read every word; all must carry the same generation.
            std::uint32_t first = co_await ctx.load(base);
            for (unsigned w = 1; w < kRegionWords; ++w) {
                std::uint32_t v = co_await ctx.load(
                    base + w * kWordBytes);
                if (v != first)
                    ++violations;
            }
            for (unsigned w = 0; w < kRegionWords; ++w) {
                co_await ctx.store(base + w * kWordBytes,
                                   first + 1);
            }
            if (co_await ctx.load(holder) != ctx.tbGlobal() + 1)
                violations += 1u << 24; // exclusion violated
            co_await mutexUnlock(ctx, lock, MutexKind::Spin, scope,
                                 ticket);
        }
        co_await ctx.store(_violations +
                               ctx.tbGlobal() * kWordBytes,
                           violations);
    }

    std::vector<std::string>
    check(WorkloadEnv &env) override
    {
        std::vector<std::string> failures;
        for (unsigned tb = 0; tb < _numCus * kTbsPerCu; ++tb) {
            std::uint32_t v = env.debugRead(
                _violations + tb * kWordBytes);
            if (v != 0) {
                failures.push_back(
                    "TB " + std::to_string(tb) +
                    " violations: torn=" +
                    std::to_string(v & 0xffff) + " own-write=" +
                    std::to_string((v >> 16) & 0xff) +
                    " exclusion=" + std::to_string(v >> 24));
            }
        }
        for (unsigned r = 0; r < kGlobalRegions; ++r) {
            for (unsigned w = 0; w < kRegionWords; ++w) {
                std::uint32_t got = env.debugRead(
                    _globalRegions[r] + w * kWordBytes);
                if (got != _globalCsCount[r]) {
                    failures.push_back(
                        "global region " + std::to_string(r) +
                        " word " + std::to_string(w) + " = " +
                        std::to_string(got) + ", expected " +
                        std::to_string(_globalCsCount[r]));
                }
            }
        }
        for (unsigned cu = 0; cu < _numCus; ++cu) {
            for (unsigned w = 0; w < kRegionWords; ++w) {
                std::uint32_t got = env.debugRead(
                    _localRegions[cu] + w * kWordBytes);
                if (got != _localCsCount[cu]) {
                    failures.push_back(
                        "local region " + std::to_string(cu) +
                        " word " + std::to_string(w) + " = " +
                        std::to_string(got) + ", expected " +
                        std::to_string(_localCsCount[cu]));
                }
            }
        }
        return failures;
    }

  private:
    static constexpr unsigned kGlobalRegions = 3;
    static constexpr unsigned kRegionWords = 24; // crosses lines
    static constexpr unsigned kTbsPerCu = 2;

    struct Step
    {
        bool local;
        unsigned region;
    };

    std::uint64_t _seed;
    unsigned _iterations;
    unsigned _numCus = 0;
    std::vector<MutexAddrs> _globalLocks, _localLocks;
    std::vector<Addr> _globalRegions, _localRegions;
    Addr _violations = 0;
    std::vector<std::uint32_t> _globalCsCount, _localCsCount;
    std::vector<std::vector<Step>> _schedule;
};

class RandomKernelRotation : public Workload
{
  public:
    explicit RandomKernelRotation(std::uint64_t seed) : _seed(seed) {}

    std::string name() const override { return "random-kernels"; }

    void
    init(WorkloadEnv &env) override
    {
        Rng rng(_seed);
        _sliceWords = 8 + static_cast<unsigned>(rng.below(40));
        _rotation = 1 + static_cast<unsigned>(rng.below(kTbs - 1));
        _data = env.alloc(kTbs * _sliceWords * kWordBytes);
        _results = env.alloc(kTbs * kWordBytes);
    }

    unsigned numKernels() const override { return kKernels; }
    KernelInfo kernelInfo(unsigned) const override { return {kTbs}; }

    SimTask
    tbMain(TbContext &ctx) override
    {
        unsigned tb = ctx.tbGlobal();
        unsigned k = ctx.kernel();
        if (k + 1 < kKernels) {
            // Write my slice tagged with the kernel number.
            for (unsigned w = 0; w < _sliceWords; ++w) {
                co_await ctx.store(
                    _data + (tb * _sliceWords + w) * kWordBytes,
                    tag(k, tb, w));
            }
        }
        if (k > 0) {
            // Verify the slice written last kernel by a rotated TB.
            unsigned src = (tb + k * _rotation) % kTbs;
            std::uint32_t bad = 0;
            for (unsigned w = 0; w < _sliceWords; ++w) {
                std::uint32_t got = co_await ctx.load(
                    _data + (src * _sliceWords + w) * kWordBytes);
                if (got != tag(k - 1, src, w))
                    ++bad;
            }
            if (k + 1 == kKernels) {
                co_await ctx.store(_results + tb * kWordBytes, bad);
            } else if (bad) {
                co_await ctx.store(_results + tb * kWordBytes, bad);
            }
        }
    }

    std::vector<std::string>
    check(WorkloadEnv &env) override
    {
        std::vector<std::string> failures;
        for (unsigned tb = 0; tb < kTbs; ++tb) {
            std::uint32_t bad =
                env.debugRead(_results + tb * kWordBytes);
            if (bad != 0) {
                failures.push_back(
                    "TB " + std::to_string(tb) + " saw " +
                    std::to_string(bad) +
                    " stale words across kernel boundaries");
            }
        }
        return failures;
    }

  private:
    static constexpr unsigned kTbs = 30;
    static constexpr unsigned kKernels = 4;

    static std::uint32_t
    tag(unsigned kernel, unsigned tb, unsigned w)
    {
        return (kernel << 20) ^ (tb << 10) ^ w ^ 0xa5a5;
    }

    std::uint64_t _seed;
    unsigned _sliceWords = 0;
    unsigned _rotation = 1;
    Addr _data = 0, _results = 0;
};

using PropParam = std::tuple<ProtocolConfig, std::uint64_t>;

class CoherenceProperty : public ::testing::TestWithParam<PropParam>
{
};

struct PropName
{
    std::string
    operator()(const ::testing::TestParamInfo<PropParam> &info) const
    {
        std::string name = std::get<0>(info.param).shortName() +
                           "_seed" +
                           std::to_string(std::get<1>(info.param));
        for (auto &c : name) {
            if (c == '+')
                c = '_';
        }
        return name;
    }
};

} // namespace

TEST_P(CoherenceProperty, LockedRegionsStayCoherent)
{
    const auto &[proto, seed] = GetParam();
    RandomLockedRegions workload(seed, 6);
    SystemConfig config;
    config.protocol = proto;
    config.execution.seed = seed;
    System system(config);
    RunResult result = system.run(workload);
    ASSERT_TRUE(result.ok()) << result.checkFailures.front();
}

TEST_P(CoherenceProperty, KernelRotationSeesFreshData)
{
    const auto &[proto, seed] = GetParam();
    RandomKernelRotation workload(seed);
    SystemConfig config;
    config.protocol = proto;
    config.execution.seed = seed;
    System system(config);
    RunResult result = system.run(workload);
    ASSERT_TRUE(result.ok()) << result.checkFailures.front();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoherenceProperty,
    ::testing::Combine(::testing::ValuesIn(ProtocolConfig::all()),
                       ::testing::Values(1u, 2u, 3u, 4u)),
    PropName{});
