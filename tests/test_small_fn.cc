/**
 * @file
 * Tests for SmallFn, the type-erased callable behind events, mesh
 * deliveries and controller continuations: argument forwarding,
 * inline versus heap storage, move-only callables, the copy and
 * empty-call panics, and a callable moving its own holder away.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "sim/small_fn.hh"

using namespace nosync;

TEST(SmallFn, ForwardsValueArgument)
{
    std::uint32_t seen = 0;
    SmallFn<void(std::uint32_t), 24> fn =
        [&seen](std::uint32_t v) { seen = v; };
    fn(42);
    EXPECT_EQ(seen, 42u);
    fn(7);
    EXPECT_EQ(seen, 7u);
}

TEST(SmallFn, ReturnsResultAndForwardsReferences)
{
    SmallFn<int(int, const std::string &), 24> fn =
        [](int a, const std::string &s) {
            return a + static_cast<int>(s.size());
        };
    EXPECT_EQ(fn(3, "four"), 7);

    int target = 0;
    SmallFn<void(int &), 24> set = [](int &x) { x = 9; };
    set(target);
    EXPECT_EQ(target, 9);
}

TEST(SmallFn, ThreeWordCallbackIsNoBiggerThanStdFunction)
{
    // Controller callbacks live in MSHR targets and waiter lists;
    // swapping std::function for SmallFn must not grow those records.
    using Callback = SmallFn<void(std::uint32_t), 24>;
    EXPECT_LE(sizeof(Callback), sizeof(std::function<void(std::uint32_t)>));
    EXPECT_LE(alignof(Callback),
              alignof(std::function<void(std::uint32_t)>));
}

TEST(SmallFn, SmallCapturesStayInlineLargeOnesSpill)
{
    int calls = 0;
    SmallFn<void(), 24> small = [&calls, pad = std::uint64_t{1}] {
        calls += static_cast<int>(pad);
    };
    EXPECT_TRUE(small.storedInline());

    std::array<std::uint64_t, 8> big{};
    big[7] = 5;
    SmallFn<void(), 24> large = [&calls, big] {
        calls += static_cast<int>(big[7]);
    };
    EXPECT_TRUE(large);
    EXPECT_FALSE(large.storedInline());

    small();
    large();
    EXPECT_EQ(calls, 6);

    // Moving keeps the storage kind and the callable.
    SmallFn<void(), 24> moved_small = std::move(small);
    SmallFn<void(), 24> moved_large = std::move(large);
    EXPECT_FALSE(small);
    EXPECT_FALSE(large);
    EXPECT_TRUE(moved_small.storedInline());
    EXPECT_FALSE(moved_large.storedInline());
    moved_small();
    moved_large();
    EXPECT_EQ(calls, 12);
}

TEST(SmallFn, HoldsMoveOnlyCallables)
{
    auto owned = std::make_unique<int>(11);
    int seen = 0;
    SmallFn<void(), 24> fn = [p = std::move(owned), &seen] {
        seen = *p;
    };
    EXPECT_TRUE(fn.storedInline());
    SmallFn<void(), 24> moved = std::move(fn);
    moved();
    EXPECT_EQ(seen, 11);

    // Destruction releases the captured state exactly once.
    auto shared = std::make_shared<int>(0);
    {
        SmallFn<void(), 24> holder = [s = shared] { ++*s; };
        EXPECT_EQ(shared.use_count(), 2);
        holder();
    }
    EXPECT_EQ(shared.use_count(), 1);
    EXPECT_EQ(*shared, 1);
}

TEST(SmallFn, CopiesCopyableCallables)
{
    auto shared = std::make_shared<int>(0);
    SmallFn<void(), 24> fn = [s = shared] { ++*s; };
    SmallFn<void(), 24> copy = fn;
    fn();
    copy();
    EXPECT_EQ(*shared, 2);
    EXPECT_EQ(shared.use_count(), 3);
}

TEST(SmallFnDeathTest, CopyingNonCopyableCallablePanics)
{
    SmallFn<void(), 24> fn = [p = std::make_unique<int>(1)] {
        (void)p;
    };
    using Fn = SmallFn<void(), 24>;
    EXPECT_DEATH({ Fn copy(fn); }, "non-copyable");
}

TEST(SmallFnDeathTest, InvokingEmptyPanics)
{
    SmallFn<void(std::uint32_t), 24> fn;
    EXPECT_FALSE(fn);
    EXPECT_DEATH(fn(1), "empty SmallFn");
}

// A continuation may hand itself on while it runs (move its own
// holder elsewhere). Inline storage relocates the running callable, so
// it reads its captures into locals first; heap storage keeps the
// callable in place.
TEST(SmallFn, CallableMayMoveItsOwnHolderWhileRunning)
{
    using Fn = SmallFn<void(), 24>;
    Fn holder;
    Fn next;
    int calls = 0;
    holder = [&holder, &next, &calls] {
        Fn *self = &holder;
        Fn *dst = &next;
        int *count = &calls;
        if (*self)
            *dst = std::move(*self);
        ++*count;
    };
    ASSERT_TRUE(holder.storedInline());
    holder();
    EXPECT_FALSE(holder);
    ASSERT_TRUE(next);
    next(); // holder is empty now, so the callable stays put
    EXPECT_EQ(calls, 2);

    std::array<std::uint64_t, 8> big{};
    big[0] = 3;
    Fn heap_holder;
    Fn heap_next;
    int total = 0;
    heap_holder = [&heap_holder, &heap_next, &total, big] {
        if (heap_holder)
            heap_next = std::move(heap_holder);
        // Still alive: the move only transferred the pointer.
        total += static_cast<int>(big[0]);
    };
    ASSERT_FALSE(heap_holder.storedInline());
    heap_holder();
    EXPECT_FALSE(heap_holder);
    heap_next();
    EXPECT_EQ(total, 6);
}

TEST(SmallFn, WrapsAnotherSmallFn)
{
    // A smaller SmallFn stored inside a larger one (a DoneCallback
    // scheduled as an event) keeps working after both are moved.
    int calls = 0;
    SmallFn<void(), 24> inner = [&calls] { ++calls; };
    SmallFn<void(), 56> outer = std::move(inner);
    EXPECT_TRUE(outer.storedInline());
    SmallFn<void(), 56> moved = std::move(outer);
    moved();
    EXPECT_EQ(calls, 1);
}
