/**
 * @file
 * Functional backing store for the unified address space.
 *
 * Holds the architectural contents of DRAM at word granularity. Timing
 * components (L2 banks) read and write lines here when they miss or
 * write back; the store itself is untimed.
 */

#ifndef MEM_FUNCTIONAL_MEM_HH
#define MEM_FUNCTIONAL_MEM_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace nosync
{

/** Contents of one cache line. */
using LineData = std::array<std::uint32_t, kWordsPerLine>;

/**
 * Sparse word-addressable memory image; unwritten words read as 0.
 *
 * The image can be interleaved into independent shards keyed by line
 * number — the same `line % shards` mapping the L2 banks use — so each
 * bank's misses touch a smaller private map. Interleaving is pure
 * internal layout: contents and behaviour are unchanged. It is kept
 * because it is faster: collapsing the shards into one map made the
 * benchmark's wall_s about 2.5% worse on global_sync and 3% on apps
 * (perfbench, three 30 s runs each, 4-core x86 host).
 */
class FunctionalMem
{
  public:
    FunctionalMem() : _shards(1) {}

    /**
     * Re-shard the image by line number. Must be called before any
     * contents exist (System does so at construction).
     */
    void
    setInterleave(std::size_t shards)
    {
        _shards = std::vector<ShardMap>(shards ? shards : 1);
    }

    /** Read one word. */
    std::uint32_t
    readWord(Addr addr) const
    {
        const ShardMap &lines = shardFor(addr);
        auto it = lines.find(lineAlign(addr));
        if (it == lines.end())
            return 0;
        return it->second[wordInLine(addr)];
    }

    /** Write one word. */
    void
    writeWord(Addr addr, std::uint32_t value)
    {
        shardFor(addr)[lineAlign(addr)][wordInLine(addr)] = value;
    }

    /** Read a whole line (zero-filled if untouched). */
    LineData
    readLine(Addr line_addr) const
    {
        const ShardMap &lines = shardFor(line_addr);
        auto it = lines.find(lineAlign(line_addr));
        if (it == lines.end())
            return LineData{};
        return it->second;
    }

    /** Write back the words selected by @p mask from @p data. */
    void
    writeLineMasked(Addr line_addr, const LineData &data, WordMask mask)
    {
        LineData &line = shardFor(line_addr)[lineAlign(line_addr)];
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            if (mask & (1u << w))
                line[w] = data[w];
        }
    }

  private:
    using ShardMap = std::unordered_map<Addr, LineData>;

    ShardMap &
    shardFor(Addr addr)
    {
        return _shards[lineHome(addr, _shards.size())];
    }

    const ShardMap &
    shardFor(Addr addr) const
    {
        return _shards[lineHome(addr, _shards.size())];
    }

    std::vector<ShardMap> _shards;
};

} // namespace nosync

#endif // MEM_FUNCTIONAL_MEM_HH
