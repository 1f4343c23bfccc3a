/**
 * @file
 * Unit tests for cache arrays, the store buffer, MSHRs, functional
 * memory, and the region map.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "coherence/region_map.hh"
#include "mem/cache_array.hh"
#include "mem/functional_mem.hh"
#include "mem/line_table.hh"
#include "mem/mshr.hh"
#include "mem/store_buffer.hh"
#include "sim/rng.hh"

using namespace nosync;

// ---------------------------------------------------------------------
// CacheArray
// ---------------------------------------------------------------------

TEST(CacheArray, MissesWhenEmpty)
{
    CacheArray array(1024, 2);
    EXPECT_EQ(array.lookup(0x1000), nullptr);
}

TEST(CacheArray, InstallAndLookup)
{
    CacheArray array(1024, 2);
    CacheLine *victim = array.findVictim(0x1000);
    array.install(*victim, 0x1000);
    CacheLine *hit = array.lookup(0x1010); // same line
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->addr, 0x1000u);
}

TEST(CacheArray, LruVictimSelection)
{
    // 1024 B, 2-way, 64 B lines -> 8 sets. Lines 0x0000 and 0x2000
    // map to set 0; a third line in set 0 must evict the LRU.
    CacheArray array(1024, 2);
    CacheLine *a = array.findVictim(0x0000);
    array.install(*a, 0x0000);
    CacheLine *b = array.findVictim(0x2000);
    array.install(*b, 0x2000);
    // Touch a so b becomes LRU.
    array.touch(*array.lookup(0x0000));
    CacheLine *victim = array.findVictim(0x4000);
    EXPECT_EQ(victim->addr, 0x2000u);
}

TEST(CacheArray, VictimPreferenceRespected)
{
    CacheArray array(1024, 2);
    CacheLine *a = array.findVictim(0x0000);
    array.install(*a, 0x0000);
    a->wstate[3] = WordState::Registered;
    CacheLine *b = array.findVictim(0x2000);
    array.install(*b, 0x2000);
    array.touch(*array.lookup(0x0000)); // make b LRU

    // Prefer frames without registered words: picks a's set-mate b
    // ... which is also the LRU here; flip roles to be meaningful.
    array.touch(*array.lookup(0x2000)); // now a is LRU but registered
    CacheLine *victim = array.findVictimPreferring(
        0x4000, [](const CacheLine &line) {
            return line.maskInState(WordState::Registered) == 0;
        });
    EXPECT_EQ(victim->addr, 0x2000u);
}

TEST(CacheArray, VictimFallsBackWhenNonePreferred)
{
    CacheArray array(1024, 2);
    for (Addr addr : {0x0000, 0x2000}) {
        CacheLine *line = array.findVictim(addr);
        array.install(*line, addr);
        line->wstate[0] = WordState::Registered;
    }
    CacheLine *victim = array.findVictimPreferring(
        0x4000, [](const CacheLine &line) {
            return line.maskInState(WordState::Registered) == 0;
        });
    ASSERT_NE(victim, nullptr);
    EXPECT_TRUE(victim->valid);
}

TEST(CacheArray, MaskInState)
{
    CacheLine line;
    line.clear();
    line.wstate[1] = WordState::Valid;
    line.wstate[5] = WordState::Registered;
    EXPECT_EQ(line.maskInState(WordState::Valid), 0x0002u);
    EXPECT_EQ(line.maskInState(WordState::Registered), 0x0020u);
}

TEST(CacheArrayDeathTest, NonPowerOfTwoSetsPanics)
{
    EXPECT_DEATH(CacheArray(3 * 64, 1), "power of two");
}

TEST(CacheArray, LookupLeavesUntouchedSetDead)
{
    // 1024 B, 2-way -> 8 sets; 0x0000 and 0x1000 map to set 0, 0x0040
    // to set 1.
    CacheArray array(1024, 2);
    EXPECT_EQ(array.lookup(0x1000), nullptr);
    EXPECT_EQ(array.liveSets(), 0u);

    array.install(*array.findVictim(0x0000), 0x0000);
    EXPECT_EQ(array.liveSets(), 1u);
    EXPECT_EQ(array.lookup(0x0040), nullptr);
    EXPECT_EQ(array.liveSets(), 1u);

    std::vector<Addr> visited;
    array.forEachValid([&](CacheLine &line) { visited.push_back(line.addr); });
    EXPECT_EQ(visited, std::vector<Addr>{0x0000});
}

TEST(CacheArray, FreshSetVictimIsWayZero)
{
    CacheArray array(1024, 2);
    CacheLine *first = array.findVictim(0x0040);
    // A materialized frame is cleared exactly as install expects.
    EXPECT_FALSE(first->valid);
    EXPECT_EQ(first->lruStamp, 0u);
    EXPECT_EQ(first->owner[0], kNoNode);
    array.install(*first, 0x0040);
    CacheLine *second = array.findVictim(0x2040);
    EXPECT_EQ(second, first + 1);
    array.install(*second, 0x2040);

    std::vector<const CacheLine *> order;
    array.forEachValid([&](CacheLine &line) { order.push_back(&line); });
    EXPECT_EQ(order, (std::vector<const CacheLine *>{first, second}));
}

TEST(CacheArray, FramesKeepAddressesAcrossChunks)
{
    // Materialize every set, from the highest index down, so that the
    // later sets take frames from chunk after chunk. Every frame handed
    // out earlier must keep its address and contents throughout.
    for (auto [size_bytes, assoc] :
         {std::pair<std::size_t, unsigned>{1024, 2},      // 8 sets
          std::pair<std::size_t, unsigned>{256 * 1024, 16}}) {
        SCOPED_TRACE(std::to_string(size_bytes) + " B");
        CacheArray array(size_bytes, assoc);
        const std::size_t num_sets = array.numSets();
        std::vector<CacheLine *> first_way(num_sets);
        for (std::size_t set = num_sets; set-- > 0;) {
            Addr addr = set * kLineBytes;
            CacheLine *victim = array.findVictim(addr);
            array.install(*victim, addr);
            victim->data[0] = static_cast<std::uint32_t>(set);
            first_way[set] = victim;
            ASSERT_EQ(array.liveSets(), num_sets - set);
            for (std::size_t older = set; older < num_sets; ++older) {
                ASSERT_EQ(array.lookup(older * kLineBytes),
                          first_way[older])
                    << "set " << older << " after set " << set;
                ASSERT_EQ(first_way[older]->data[0], older);
            }
        }

        // A second line in each set takes the way after its first.
        for (std::size_t set = 0; set < num_sets; ++set) {
            Addr addr = (num_sets + set) * kLineBytes;
            CacheLine *victim = array.findVictim(addr);
            EXPECT_EQ(victim, first_way[set] + 1) << "set " << set;
            array.install(*victim, addr);
        }
        EXPECT_EQ(array.liveSets(), num_sets);

        // forEachValid walks ascending set order, then way order.
        std::vector<Addr> visited;
        array.forEachValid(
            [&](CacheLine &line) { visited.push_back(line.addr); });
        std::vector<Addr> want;
        for (std::size_t set = 0; set < num_sets; ++set) {
            want.push_back(set * kLineBytes);
            want.push_back((num_sets + set) * kLineBytes);
        }
        EXPECT_EQ(visited, want);
    }
}

TEST(CacheArray, ConstLookupSeesSameFrames)
{
    CacheArray array(1024, 2);
    const CacheArray &view = array;
    EXPECT_EQ(view.lookup(0x0080), nullptr);
    EXPECT_EQ(view.liveSets(), 0u);

    array.install(*array.findVictim(0x0080), 0x0080);
    ASSERT_NE(array.lookup(0x0080), nullptr);
    EXPECT_EQ(view.lookup(0x0084), array.lookup(0x0080));
    EXPECT_EQ(view.lookup(0x2080), nullptr);

    std::vector<const CacheLine *> visited;
    view.forEachValid(
        [&](const CacheLine &line) { visited.push_back(&line); });
    EXPECT_EQ(visited,
              std::vector<const CacheLine *>{array.lookup(0x0080)});
}

namespace
{

/**
 * Reference for the differential test: an array whose frames are all
 * cleared up front, with the same lookup, victim and LRU rules,
 * naming frames by their index (set * assoc + way).
 */
class DenseCacheArray
{
  public:
    static constexpr std::size_t kNone = ~std::size_t{0};

    DenseCacheArray(std::size_t size_bytes, unsigned assoc)
        : _assoc(assoc), _numSets(size_bytes / kLineBytes / assoc),
          _lines(_numSets * assoc)
    {
        for (CacheLine &line : _lines)
            line.clear();
    }

    CacheLine &frame(std::size_t index) { return _lines[index]; }

    std::size_t
    lookup(Addr addr) const
    {
        addr = lineAlign(addr);
        for (std::size_t i = setBase(addr); i < setBase(addr) + _assoc;
             ++i) {
            if (_lines[i].valid && _lines[i].addr == addr)
                return i;
        }
        return kNone;
    }

    template <typename Pred>
    std::size_t
    findVictim(Addr addr, Pred &&preferred) const
    {
        std::size_t best_pref = kNone;
        std::size_t best_any = setBase(lineAlign(addr));
        for (std::size_t i = best_any; i < setBase(lineAlign(addr)) + _assoc;
             ++i) {
            if (!_lines[i].valid)
                return i;
            if (_lines[i].lruStamp < _lines[best_any].lruStamp)
                best_any = i;
            if (preferred(_lines[i]) &&
                (best_pref == kNone ||
                 _lines[i].lruStamp < _lines[best_pref].lruStamp)) {
                best_pref = i;
            }
        }
        return best_pref != kNone ? best_pref : best_any;
    }

    void touch(std::size_t index) { _lines[index].lruStamp = ++_lru; }

    void
    install(std::size_t index, Addr addr)
    {
        _lines[index].clear();
        _lines[index].addr = lineAlign(addr);
        _lines[index].valid = true;
        touch(index);
    }

    /** (frame index, line address, LRU stamp) of every valid frame. */
    std::vector<std::tuple<std::size_t, Addr, std::uint64_t>>
    validFrames() const
    {
        std::vector<std::tuple<std::size_t, Addr, std::uint64_t>> out;
        for (std::size_t i = 0; i < _lines.size(); ++i) {
            if (_lines[i].valid)
                out.emplace_back(i, _lines[i].addr, _lines[i].lruStamp);
        }
        return out;
    }

  private:
    std::size_t
    setBase(Addr line_addr) const
    {
        return ((line_addr / kLineBytes) & (_numSets - 1)) * _assoc;
    }

    unsigned _assoc;
    std::size_t _numSets;
    std::vector<CacheLine> _lines;
    std::uint64_t _lru = 0;
};

bool
noRegisteredWords(const CacheLine &line)
{
    return line.maskInState(WordState::Registered) == 0;
}

} // namespace

class CacheArrayDifferential
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>>
{
};

TEST_P(CacheArrayDifferential, MatchesEagerReference)
{
    // Seeded random lookup/findVictim/findVictimPreferring/install/
    // touch sequences, with protocol-style edits to hit frames
    // (registering a word, invalidating the line), run on both arrays.
    // Every returned frame and the full forEachValid sequence must
    // match the eagerly cleared reference after every step.
    const auto [size_bytes, assoc] = GetParam();
    constexpr std::size_t kNone = DenseCacheArray::kNone;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        CacheArray lazy(size_bytes, assoc);
        DenseCacheArray dense(size_bytes, assoc);
        const std::size_t num_sets = lazy.numSets();
        auto set_of = [&](Addr addr) {
            return (lineAlign(addr) / kLineBytes) & (num_sets - 1);
        };
        // Each materialized set's way-0 frame: a fresh set's first
        // victim.
        std::map<std::size_t, CacheLine *> way0;

        // Name a lazy frame of @p addr's set by its dense index,
        // set * assoc + way, after checking that the frame is one of
        // its set's assoc frames.
        auto index = [&](const CacheLine *line, Addr addr) {
            if (line == nullptr)
                return kNone;
            auto it = way0.find(set_of(addr));
            if (it == way0.end()) {
                ADD_FAILURE() << "frame in dead set " << set_of(addr);
                return kNone;
            }
            auto way = static_cast<std::size_t>(line - it->second);
            EXPECT_LT(way, assoc) << "frame outside set " << set_of(addr);
            return set_of(addr) * assoc + way;
        };
        Rng rng(seed);
        // A pool of lines four times the capacity, so sets conflict
        // and (in the larger arrays) many stay untouched.
        std::vector<Addr> pool(64);
        for (Addr &line : pool)
            line = rng.below(4 * num_sets * assoc) * kLineBytes;

        for (int step = 0; step < 400; ++step) {
            Addr addr = pool[rng.below(pool.size())] + rng.below(kLineBytes);
            std::size_t hit = dense.lookup(addr);
            switch (rng.below(7)) {
              case 0:
                ASSERT_EQ(index(lazy.lookup(addr), addr), hit);
                break;
              case 1: {
                const CacheArray &view = lazy;
                ASSERT_EQ(index(view.lookup(addr), addr), hit);
                break;
              }
              case 2:
              case 3: {
                bool prefer = rng.below(2) == 0;
                CacheLine *victim =
                    prefer ? lazy.findVictimPreferring(addr,
                                                       noRegisteredWords)
                           : lazy.findVictim(addr);
                way0.emplace(set_of(addr), victim);
                std::size_t want = dense.findVictim(
                    addr, [&](const CacheLine &line) {
                        return !prefer || noRegisteredWords(line);
                    });
                ASSERT_EQ(index(victim, addr), want);
                if (hit == kNone && rng.below(4) != 0) {
                    lazy.install(*victim, addr);
                    dense.install(want, addr);
                }
                break;
              }
              case 4:
                if (hit != kNone) {
                    lazy.touch(*lazy.lookup(addr));
                    dense.touch(hit);
                }
                break;
              case 5:
                if (hit != kNone) {
                    unsigned w = static_cast<unsigned>(
                        rng.below(kWordsPerLine));
                    lazy.lookup(addr)->wstate[w] = WordState::Registered;
                    dense.frame(hit).wstate[w] = WordState::Registered;
                }
                break;
              default:
                if (hit != kNone) {
                    lazy.lookup(addr)->valid = false;
                    dense.frame(hit).valid = false;
                }
                break;
            }

            std::vector<std::tuple<std::size_t, Addr, std::uint64_t>> got;
            lazy.forEachValid([&](CacheLine &line) {
                got.emplace_back(index(&line, line.addr), line.addr,
                                 line.lruStamp);
            });
            ASSERT_EQ(got, dense.validFrames()) << "after step " << step;
        }
        // Only victim selection materializes a set.
        EXPECT_EQ(lazy.liveSets(), way0.size());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayDifferential,
    ::testing::Values(std::make_tuple(std::size_t{1024}, 2u),
                      std::make_tuple(std::size_t{16 * 1024}, 4u),
                      std::make_tuple(std::size_t{64 * 1024}, 2u)));

// ---------------------------------------------------------------------
// StoreBuffer
// ---------------------------------------------------------------------

TEST(StoreBuffer, InsertAndLookup)
{
    StoreBuffer sb(4);
    EXPECT_FALSE(sb.insert(0x100, 7));
    EXPECT_TRUE(sb.contains(0x100));
    EXPECT_EQ(sb.value(0x100), 7u);
    EXPECT_EQ(sb.size(), 1u);
}

TEST(StoreBuffer, CoalescesSameWord)
{
    StoreBuffer sb(4);
    sb.insert(0x100, 7);
    EXPECT_TRUE(sb.insert(0x102, 9)); // same word, sub-word address
    EXPECT_EQ(sb.size(), 1u);
    EXPECT_EQ(sb.value(0x100), 9u);
}

TEST(StoreBuffer, FullDetection)
{
    StoreBuffer sb(2);
    sb.insert(0x100, 1);
    sb.insert(0x104, 2);
    EXPECT_TRUE(sb.full());
    // Coalescing into an existing word is still allowed.
    EXPECT_TRUE(sb.insert(0x100, 3));
}

TEST(StoreBuffer, DrainGroupsByLine)
{
    StoreBuffer sb(8);
    sb.insert(0x100, 1); // line 0x100, word 0
    sb.insert(0x108, 2); // line 0x100, word 2
    sb.insert(0x140, 3); // line 0x140, word 0
    auto groups = sb.drain();
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].lineAddr, 0x100u);
    EXPECT_EQ(groups[0].mask, 0x0005u);
    EXPECT_EQ(groups[0].data[0], 1u);
    EXPECT_EQ(groups[0].data[2], 2u);
    EXPECT_EQ(groups[1].lineAddr, 0x140u);
    EXPECT_EQ(groups[1].mask, 0x0001u);
    EXPECT_TRUE(sb.empty());
}

TEST(StoreBuffer, EraseRemovesWord)
{
    StoreBuffer sb(4);
    sb.insert(0x100, 1);
    sb.erase(0x100);
    EXPECT_FALSE(sb.contains(0x100));
}

// ---------------------------------------------------------------------
// MshrTable
// ---------------------------------------------------------------------

TEST(Mshr, AllocateFindDeallocate)
{
    struct Payload
    {
        int x = 0;
    };
    MshrTable<Payload> table(4);
    EXPECT_EQ(table.find(0x1000), nullptr);
    Payload &p = table.allocate(0x1010); // line-aligns to 0x1000
    p.x = 5;
    ASSERT_NE(table.find(0x1000), nullptr);
    EXPECT_EQ(table.find(0x1020)->x, 5);
    table.deallocate(0x1000);
    EXPECT_EQ(table.find(0x1000), nullptr);
}

TEST(Mshr, PointersStableAcrossInserts)
{
    struct Payload
    {
        int x = 0;
    };
    MshrTable<Payload> table(64);
    Payload *first = &table.allocate(0x0);
    first->x = 42;
    for (Addr line = 1; line < 50; ++line)
        table.allocate(line * kLineBytes);
    EXPECT_EQ(first->x, 42);
    EXPECT_EQ(table.find(0x0), first);
}

TEST(Mshr, PointersStableUnderInterleavedChurn)
{
    // L1 code keeps LineEntry pointers across protocol
    // callbacks, so payload addresses must survive arbitrary
    // interleavings of allocate and deallocate — including slot
    // recycling and table growth in the backing LineTable.
    struct Payload
    {
        Addr tag = 0;
        std::vector<int> junk; // non-trivial payload
    };
    MshrTable<Payload> table(64);
    std::vector<std::pair<Addr, Payload *>> live;
    Addr next = 0;
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 5; ++i, ++next) {
            Addr line = next * kLineBytes;
            Payload &p = table.allocate(line);
            p.tag = line;
            p.junk.assign(8, static_cast<int>(round));
            live.emplace_back(line, &p);
        }
        // Free every other live entry (oldest-first) to churn the
        // free list and force backward-shift deletions.
        std::vector<std::pair<Addr, Payload *>> kept;
        for (std::size_t i = 0; i < live.size(); ++i) {
            if (i % 2 == 0 && live.size() > 8)
                table.deallocate(live[i].first);
            else
                kept.push_back(live[i]);
        }
        live = std::move(kept);
        for (const auto &[line, ptr] : live) {
            ASSERT_EQ(table.find(line), ptr);
            EXPECT_EQ(ptr->tag, line);
        }
    }
}

TEST(MshrDeathTest, OverflowPanics)
{
    struct Payload
    {
    };
    MshrTable<Payload> table(1);
    table.allocate(0x0);
    EXPECT_DEATH(table.allocate(0x40), "overflow");
}

TEST(MshrDeathTest, DuplicateAllocationPanics)
{
    struct Payload
    {
    };
    MshrTable<Payload> table(4);
    table.allocate(0x0);
    EXPECT_DEATH(table.allocate(0x0), "duplicate");
}

// ---------------------------------------------------------------------
// LineTable
// ---------------------------------------------------------------------

TEST(LineTable, InsertFindErase)
{
    LineTable<int> table(4);
    EXPECT_FALSE(table.contains(0x1000));
    table.insert(0x1000) = 7;
    EXPECT_TRUE(table.contains(0x1010)); // line-aligned probe
    ASSERT_NE(table.find(0x1000), nullptr);
    EXPECT_EQ(*table.find(0x1000), 7);
    EXPECT_TRUE(table.erase(0x1000));
    EXPECT_FALSE(table.erase(0x1000));
    EXPECT_EQ(table.find(0x1000), nullptr);
    EXPECT_EQ(table.size(), 0u);
}

TEST(LineTable, IndexOperatorFindsOrInserts)
{
    LineTable<int> table(4);
    table[0x2000] = 3;
    table[0x2008] += 4; // same line
    EXPECT_EQ(*table.find(0x2000), 7);
    EXPECT_EQ(table.size(), 1u);
}

TEST(LineTable, GrowthKeepsPayloadsStable)
{
    // The bucket index rebuilds on growth but payload slots must not
    // move: controllers hold payload pointers across growth.
    LineTable<Addr> table(2);
    std::vector<std::pair<Addr, Addr *>> live;
    for (Addr line = 0; line < 200; ++line) {
        Addr addr = line * kLineBytes;
        Addr &slot = table.insert(addr);
        slot = addr;
        live.emplace_back(addr, &slot);
    }
    for (const auto &[addr, ptr] : live) {
        ASSERT_EQ(table.find(addr), ptr);
        EXPECT_EQ(*ptr, addr);
    }
}

TEST(LineTable, EraseKeepsCollidingEntriesReachable)
{
    // Backward-shift deletion: removing one entry must not orphan
    // entries displaced past it by linear probing. Dense consecutive
    // lines guarantee probe chains at any table size.
    LineTable<int> table(4);
    for (Addr line = 0; line < 64; ++line)
        table.insert(line * kLineBytes) = static_cast<int>(line);
    for (Addr line = 0; line < 64; line += 2)
        EXPECT_TRUE(table.erase(line * kLineBytes));
    for (Addr line = 1; line < 64; line += 2) {
        ASSERT_NE(table.find(line * kLineBytes), nullptr);
        EXPECT_EQ(*table.find(line * kLineBytes),
                  static_cast<int>(line));
    }
    EXPECT_EQ(table.size(), 32u);
}

TEST(LineTable, ForEachSortedIsAddressOrdered)
{
    LineTable<int> table(4);
    for (Addr line : {7u, 1u, 5u, 3u})
        table.insert(line * kLineBytes) = static_cast<int>(line);
    std::vector<Addr> seen;
    table.forEachSorted(
        [&](Addr addr, const int &) { seen.push_back(addr); });
    EXPECT_EQ(seen, (std::vector<Addr>{0x40, 0xc0, 0x140, 0x1c0}));
}

TEST(LineTableDeathTest, DuplicateInsertPanics)
{
    LineTable<int> table(4);
    table.insert(0x1000);
    EXPECT_DEATH(table.insert(0x1020), "duplicate");
}

// ---------------------------------------------------------------------
// FunctionalMem
// ---------------------------------------------------------------------

TEST(FunctionalMem, UnwrittenReadsZero)
{
    FunctionalMem mem;
    EXPECT_EQ(mem.readWord(0x1234), 0u);
}

TEST(FunctionalMem, WordReadWrite)
{
    FunctionalMem mem;
    mem.writeWord(0x1004, 99);
    EXPECT_EQ(mem.readWord(0x1004), 99u);
    EXPECT_EQ(mem.readWord(0x1000), 0u);
}

TEST(FunctionalMem, MaskedLineWrite)
{
    FunctionalMem mem;
    LineData data{};
    data[0] = 10;
    data[3] = 13;
    mem.writeLineMasked(0x2000, data, 0x0009);
    EXPECT_EQ(mem.readWord(0x2000), 10u);
    EXPECT_EQ(mem.readWord(0x200c), 13u);
    EXPECT_EQ(mem.readWord(0x2004), 0u);
}

// ---------------------------------------------------------------------
// RegionMap
// ---------------------------------------------------------------------

TEST(RegionMap, EmptyMapNothingReadOnly)
{
    RegionMap map;
    EXPECT_FALSE(map.isReadOnly(0x1000));
    EXPECT_EQ(map.readOnlyMask(0x1000), 0u);
}

TEST(RegionMap, RangeMembership)
{
    RegionMap map;
    map.addReadOnly(0x1000, 0x100);
    EXPECT_TRUE(map.isReadOnly(0x1000));
    EXPECT_TRUE(map.isReadOnly(0x10ff));
    EXPECT_FALSE(map.isReadOnly(0x1100));
    EXPECT_FALSE(map.isReadOnly(0xfff));
}

TEST(RegionMap, PartialLineMask)
{
    RegionMap map;
    // Read-only covers only words 2..5 of the line at 0x1000.
    map.addReadOnly(0x1008, 4 * kWordBytes);
    EXPECT_EQ(map.readOnlyMask(0x1000), 0x003cu);
}

TEST(RegionMap, MultipleRanges)
{
    RegionMap map;
    map.addReadOnly(0x1000, 0x40);
    map.addReadOnly(0x3000, 0x40);
    EXPECT_TRUE(map.isReadOnly(0x1010));
    EXPECT_FALSE(map.isReadOnly(0x2000));
    EXPECT_TRUE(map.isReadOnly(0x3030));
}

TEST(RegionMap, ClearRemovesRanges)
{
    RegionMap map;
    map.addReadOnly(0x1000, 0x40);
    map.clear();
    EXPECT_FALSE(map.isReadOnly(0x1000));
    EXPECT_EQ(map.rangeCount(), 0u);
    EXPECT_EQ(map.readOnlyMask(0x1000), 0u);
}

// Regression: a declaration nested inside an earlier one must not
// shadow it. The old base-keyed std::map consulted only the probed
// address's immediate predecessor range, so after the inner
// declaration, addresses in the outer range's tail looked writable
// and DD+RO wrongly self-invalidated them.
TEST(RegionMap, NestedDeclarationDoesNotShadowOuterRange)
{
    RegionMap map;
    map.addReadOnly(0x1000, 0x100); // outer: [0x1000, 0x1100)
    map.addReadOnly(0x1040, 0x20);  // nested: [0x1040, 0x1060)
    EXPECT_TRUE(map.isReadOnly(0x10f0)); // outer tail, past nested
    EXPECT_TRUE(map.isReadOnly(0x1050)); // inside both
    EXPECT_FALSE(map.isReadOnly(0x1100));
    EXPECT_EQ(map.rangeCount(), 1u);
}

// Regression: re-declaring the same base with a smaller size must not
// shrink the range (the map holds the union of declarations). The old
// std::map overwrote the end, silently dropping the tail.
TEST(RegionMap, SameBaseRedeclarationNeverShrinks)
{
    RegionMap map;
    map.addReadOnly(0x1000, 0x100);
    map.addReadOnly(0x1000, 0x40);
    EXPECT_TRUE(map.isReadOnly(0x1080));
    EXPECT_TRUE(map.isReadOnly(0x10ff));
    EXPECT_EQ(map.rangeCount(), 1u);
}

// Regression: partially overlapping declarations merge into one
// covering range; the old map kept both bases and predecessor lookup
// saw only the later, shorter one.
TEST(RegionMap, OverlappingDeclarationsMerge)
{
    RegionMap map;
    map.addReadOnly(0x1000, 0x80);  // [0x1000, 0x1080)
    map.addReadOnly(0x1060, 0x100); // [0x1060, 0x1160)
    EXPECT_TRUE(map.isReadOnly(0x1000));
    EXPECT_TRUE(map.isReadOnly(0x1070));
    EXPECT_TRUE(map.isReadOnly(0x115f));
    EXPECT_FALSE(map.isReadOnly(0x1160));
    EXPECT_EQ(map.rangeCount(), 1u);
}

TEST(RegionMap, AdjacentDeclarationsCoalesce)
{
    RegionMap map;
    map.addReadOnly(0x1000, 0x40);
    map.addReadOnly(0x1040, 0x40); // abuts the first
    map.addReadOnly(0x2000, 0x40); // disjoint
    EXPECT_EQ(map.rangeCount(), 2u);
    EXPECT_TRUE(map.isReadOnly(0x107f));
    EXPECT_FALSE(map.isReadOnly(0x1080));
}

TEST(RegionMap, DeclarationBridgingTwoRangesMergesAll)
{
    RegionMap map;
    map.addReadOnly(0x1000, 0x40);
    map.addReadOnly(0x3000, 0x40);
    EXPECT_EQ(map.rangeCount(), 2u);
    map.addReadOnly(0x1020, 0x2000); // spans the gap and both ranges
    EXPECT_EQ(map.rangeCount(), 1u);
    EXPECT_TRUE(map.isReadOnly(0x2000));
    EXPECT_TRUE(map.isReadOnly(0x303f));
    EXPECT_FALSE(map.isReadOnly(0x3040));
}

TEST(RegionMap, MaskAcrossLineBoundaries)
{
    RegionMap map;
    // [0x1020, 0x1060): upper half of line 0x1000, lower half of
    // line 0x1040.
    map.addReadOnly(0x1020, 0x40);
    EXPECT_EQ(map.readOnlyMask(0x1000), 0xff00u);
    EXPECT_EQ(map.readOnlyMask(0x1040), 0x00ffu);
    EXPECT_EQ(map.readOnlyMask(0x1080), 0u);
}

TEST(RegionMap, MaskSeesMergedCoverage)
{
    RegionMap map;
    // Two declarations covering different words of one line, made
    // non-adjacent so they stay distinct ranges.
    map.addReadOnly(0x1000, 2 * kWordBytes); // words 0..1
    map.addReadOnly(0x1020, 2 * kWordBytes); // words 8..9
    EXPECT_EQ(map.rangeCount(), 2u);
    EXPECT_EQ(map.readOnlyMask(0x1000), 0x0303u);
    // A nested re-declaration must not change the mask.
    map.addReadOnly(0x1000, kWordBytes);
    EXPECT_EQ(map.readOnlyMask(0x1000), 0x0303u);
}
