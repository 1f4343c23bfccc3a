/**
 * @file
 * Tests of the L2 bank's DRAM fill (L2Controller): with one fetch
 * MSHR per bank, requests for further lines stall in arrival order
 * and replay as each fill completes, on the GPU bank and the DeNovo
 * registry alike; a DeNovo fill whose victim must be recalled first
 * keeps its MSHR while the recall runs, so the requests behind it
 * stay stalled until the recall ends.
 */

#include <gtest/gtest.h>

#include "coherence/l2_controller.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

using namespace nosync;
using namespace nosync::test;

namespace
{

/** Consecutive lines of bank 0 on the 16-bank default mesh. */
constexpr Addr kBase = 0x40000;
constexpr Addr kBankStride = 16 * kLineBytes;

SystemConfig
oneFetchMshr(const ProtocolConfig &protocol)
{
    SystemConfig config;
    config.protocol = protocol;
    config.geometry.l2MshrEntries = 1;
    return config;
}

/** @p bank's gauge @p name in its snapshot. */
std::size_t
gauge(const L2Controller &bank, const std::string &name)
{
    for (const auto &[label, value] : bank.snapshot().gauges) {
        if (label == name)
            return value;
    }
    ADD_FAILURE() << "no gauge " << name;
    return 0;
}

class L2Fill : public ::testing::TestWithParam<ProtocolConfig>
{};

} // namespace

// A global atomic and then three loads from one CU, each to its own
// line of bank 0: the atomic's request takes the only fetch MSHR and
// the loads' three stall. Each fill replays the next stalled request,
// so they complete in the order they arrived, with the values memory
// held.
TEST_P(L2Fill, FetchMshrFullStallsAndReplaysInArrivalOrder)
{
    System sys(oneFetchMshr(GetParam()));
    for (unsigned i = 0; i < 4; ++i)
        sys.writeInit(kBase + i * kBankStride, 100 + i);
    ASSERT_EQ(lineHome(kBase, sys.numL2Banks()), 0u);

    std::vector<unsigned> order;
    std::vector<std::uint32_t> values(4, 0);
    sys.l1(0).sync(makeSync(AtomicFunc::FetchAdd, kBase, 5),
                   [&order, &values](std::uint32_t v) {
                       order.push_back(0);
                       values[0] = v;
                   });
    WordAccesses words;
    for (unsigned i = 1; i < 4; ++i) {
        words.load(sys.l1(0), kBase + i * kBankStride,
                   [&, i](std::uint32_t v) {
                       order.push_back(i);
                       values[i] = v;
                   });
    }

    L2Controller &bank = sys.l2Bank(0);
    std::size_t max_stalled = 0;
    while (sys.eventQueue().step()) {
        max_stalled = std::max(max_stalled, gauge(bank, "stalled"));
        EXPECT_LE(gauge(bank, "fetches"), 1u);
    }

    EXPECT_EQ(max_stalled, 3u);
    EXPECT_EQ(order, (std::vector<unsigned>{0, 1, 2, 3}));
    EXPECT_EQ(values, (std::vector<std::uint32_t>{100, 101, 102, 103}));
    EXPECT_EQ(sys.debugRead(kBase), 105u);
    EXPECT_EQ(sys.stats().find("l2b0.dram_fetches")->value(), 4.0);
    EXPECT_TRUE(bank.checkInvariants(true).empty());
    EXPECT_TRUE(sys.l1(0).checkInvariants(true).empty());
}

// Whole workloads with one fetch MSHR per bank: every access that
// misses behind another bank's fill stalls and replays, and the
// functional checks still pass.
TEST_P(L2Fill, WorkloadsPassWithOneFetchMshr)
{
    for (const char *name : {"FAM_G", "SGEMM"}) {
        System sys(oneFetchMshr(GetParam()));
        auto workload = makeScaled(name, 1);
        RunResult result = sys.run(*workload);
        EXPECT_TRUE(result.ok()) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(Columns, L2Fill,
                         ::testing::Values(ProtocolConfig::gd(),
                                           ProtocolConfig::dd(),
                                           ProtocolConfig::ddse()),
                         ConfigName{});

// A one-set DeNovo bank full of lines with registered words: the fill
// of a 17th line must recall a victim first. Its fetch MSHR stays
// taken while the recall runs, so a request for an 18th line stalls
// behind it and replays only once the recall ended and the first fill
// installed.
TEST(L2FillDenovo, FetchBlockedOnRecallKeepsLaterRequestsStalled)
{
    SystemConfig config = oneFetchMshr(ProtocolConfig::dd());
    config.geometry.l2BankBytes = 1024; // 1 set x 16 ways per bank
    config.geometry.l2Assoc = 16;
    System sys(config);

    for (unsigned i = 0; i < 16; ++i) {
        doStore(sys, i % 4, kBase + i * kBankStride, 100 + i);
        doDrain(sys, i % 4);
    }
    sys.writeInit(kBase + 16 * kBankStride, 116);
    sys.writeInit(kBase + 17 * kBankStride, 117);

    std::uint32_t first = 0;
    std::uint32_t second = 0;
    WordAccesses words;
    words.load(sys.l1(5), kBase + 16 * kBankStride,
               [&](std::uint32_t v) { first = v; });
    words.load(sys.l1(6), kBase + 17 * kBankStride,
               [&](std::uint32_t v) { second = v; });

    L2Controller &bank = sys.l2Bank(0);
    bool stalled_behind_recall = false;
    while (sys.eventQueue().step()) {
        if (gauge(bank, "recalls") == 1 && gauge(bank, "fetches") == 1 &&
            gauge(bank, "stalled") == 1) {
            stalled_behind_recall = true;
        }
    }

    EXPECT_TRUE(stalled_behind_recall);
    EXPECT_EQ(first, 116u);
    EXPECT_EQ(second, 117u);
    EXPECT_GE(sys.stats().find("l2b0.recalls")->value(), 1.0);
    // Every registered value survives the recall.
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(sys.debugRead(kBase + i * kBankStride), 100 + i);
    EXPECT_TRUE(bank.checkInvariants(true).empty());
}
