/**
 * @file
 * Shared helpers for the test suite.
 */

#ifndef TESTS_TEST_UTIL_HH
#define TESTS_TEST_UTIL_HH

#include <cstdio>
#include <deque>
#include <functional>
#include <ostream>
#include <string>

#if defined(__SANITIZE_ADDRESS__)
#define NOSYNC_HAS_LSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NOSYNC_HAS_LSAN 1
#endif
#endif
#ifdef NOSYNC_HAS_LSAN
#include <sanitizer/lsan_interface.h>
#endif

#include "core/system.hh"

namespace nosync
{

/**
 * gtest prints a parameter's value into every parameterized test's
 * registered ctest name. Render a ProtocolConfig as the byte dump of
 * the earlier six-field struct (two 32-bit enums, then the read-only,
 * per-region, read-backoff and sync-engine flags), so the registered
 * names stay the same now that the config is one row index. Every
 * test file that prints a ProtocolConfig (EXPECT_EQ on one, say) must
 * include this header: a file that does not instantiates gtest's
 * default printer for the same type, and the linker may keep that
 * one for every file, renaming the registered tests.
 */
inline void
PrintTo(const ProtocolConfig &config, std::ostream *os)
{
    const unsigned char bytes[12] = {
        static_cast<unsigned char>(config.protocol()), 0, 0, 0,
        static_cast<unsigned char>(config.consistency()), 0, 0, 0,
        config.readOnlyRegions(), config.perRegionPolicy(), 0,
        config.syncEngine()};
    *os << sizeof(bytes) << "-byte object <";
    char text[3];
    for (std::size_t i = 0; i < sizeof(bytes); ++i) {
        if (i != 0)
            *os << (i % 2 == 0 ? ' ' : '-');
        std::snprintf(text, sizeof(text), "%02X", bytes[i]);
        *os << text;
    }
    *os << '>';
}

} // namespace nosync

namespace nosync::test
{

/**
 * LeakSanitizer tolerance for intentionally-hung runs. A hung run
 * abandons its suspended coroutine frames: started SimTasks are
 * detached and self-destroy only at completion, so thread blocks
 * still awaiting a memory op when the watchdog fires leak their
 * frames. Acceptable on that terminal diagnostic path, but tests
 * that hang a run on purpose must scope it out of leak checking.
 */
struct ScopedLeakTolerance
{
#ifdef NOSYNC_HAS_LSAN
    ScopedLeakTolerance() { __lsan_disable(); }
    ~ScopedLeakTolerance() { __lsan_enable(); }
#else
    ScopedLeakTolerance() {}
    ~ScopedLeakTolerance() {}
#endif
};

/** Run the event queue until it drains (or a safety limit). */
inline void
drainEvents(System &system, Tick limit = 50'000'000)
{
    system.eventQueue().run(system.eventQueue().now() + limit);
}

/**
 * One-word data accesses issued straight into an L1, as a thread
 * block issues a plain load or store: a one-word loadMany or
 * storeMany. Each access's WarpBatch stays in place until this object
 * goes, so an access still in flight when a test ends is freed with
 * it; declare the object after the System it drives.
 */
class WordAccesses
{
  public:
    /** Load @p addr through @p l1; @p done gets the value. */
    void
    load(L1Controller &l1, Addr addr,
         std::function<void(std::uint32_t)> done = {})
    {
        Word &w = issue(addr, 0, std::move(done));
        l1.loadMany({&w.addr, 1}, {&w.value, 1}, w.batch);
    }

    /** Store @p value to @p addr through @p l1; @p done fires when
     *  the store retires. */
    void
    store(L1Controller &l1, Addr addr, std::uint32_t value,
          std::function<void()> done = {})
    {
        Word &w = issue(addr, value, [done = std::move(done)](
                                         std::uint32_t) {
            if (done)
                done();
        });
        l1.storeMany({&w.addr, 1}, {&w.value, 1}, w.batch);
    }

  private:
    struct Word
    {
        Addr addr;
        std::uint32_t value;
        std::function<void(std::uint32_t)> done;
        WarpBatch batch;
    };

    Word &
    issue(Addr addr, std::uint32_t value,
          std::function<void(std::uint32_t)> done)
    {
        // A deque keeps every Word in place as more are issued.
        Word &w = _words.emplace_back(addr, value, std::move(done));
        w.batch.done = [&w] {
            if (w.done)
                w.done(w.value);
        };
        return w;
    }

    std::deque<Word> _words;
};

/** Synchronously perform a load through a CU's L1. */
inline std::uint32_t
doLoad(System &system, unsigned cu, Addr addr)
{
    std::uint32_t out = 0;
    bool done = false;
    WordAccesses words;
    words.load(system.l1(cu), addr, [&](std::uint32_t v) {
        out = v;
        done = true;
    });
    while (!done && system.eventQueue().step()) {
    }
    EXPECT_TRUE(done) << "load never completed";
    return out;
}

/** Synchronously perform a store through a CU's L1. */
inline void
doStore(System &system, unsigned cu, Addr addr, std::uint32_t value)
{
    bool done = false;
    WordAccesses words;
    words.store(system.l1(cu), addr, value, [&] { done = true; });
    while (!done && system.eventQueue().step()) {
    }
    EXPECT_TRUE(done) << "store never completed";
}

/** Synchronously perform a sync access through a CU's L1. */
inline std::uint32_t
doSync(System &system, unsigned cu, const SyncOp &op)
{
    std::uint32_t out = 0;
    bool done = false;
    system.l1(cu).sync(op, [&](std::uint32_t v) {
        out = v;
        done = true;
    });
    while (!done && system.eventQueue().step()) {
    }
    EXPECT_TRUE(done) << "sync access never completed";
    return out;
}

/** Synchronously drain a CU's buffered writes at global scope. */
inline void
doDrain(System &system, unsigned cu)
{
    bool done = false;
    system.l1(cu).drainWrites(Scope::Global, [&] { done = true; });
    while (!done && system.eventQueue().step()) {
    }
    EXPECT_TRUE(done) << "drain never completed";
}

/** Build a SyncOp tersely. */
inline SyncOp
makeSync(AtomicFunc func, Addr addr, std::uint32_t operand = 0,
         std::uint32_t compare = 0, Scope scope = Scope::Global,
         SyncSemantics sem = SyncSemantics::AcquireRelease)
{
    SyncOp op;
    op.func = func;
    op.addr = addr;
    op.operand = operand;
    op.compare = compare;
    op.scope = scope;
    op.sem = sem;
    return op;
}

/** Pretty parameter names for parameterized suites. */
struct ConfigName
{
    template <typename ParamT>
    std::string
    operator()(const ParamT &info) const
    {
        std::string name = info.param.shortName();
        for (auto &c : name) {
            if (c == '+')
                c = '_';
        }
        return name;
    }
};

} // namespace nosync::test

#endif // TESTS_TEST_UTIL_HH
