/**
 * @file
 * Fundamental simulator-wide types and memory-geometry constants.
 */

#ifndef SIM_TYPES_HH
#define SIM_TYPES_HH

#include <cstddef>
#include <cstdint>

namespace nosync
{

/** Simulated time, in GPU core cycles (700 MHz in the baseline). */
using Tick = std::uint64_t;

/** A duration expressed in GPU core cycles. */
using Cycles = std::uint64_t;

/** Byte address in the unified CPU-GPU address space. */
using Addr = std::uint64_t;

/** Identifier of a mesh node (CU, CPU core, or L2 bank slice). */
using NodeId = int;

/** Invalid / "no node" sentinel. */
constexpr NodeId kNoNode = -1;

/** Cache line geometry: 64-byte lines of 16 4-byte words. */
constexpr unsigned kLineBytes = 64;
constexpr unsigned kWordBytes = 4;
constexpr unsigned kWordsPerLine = kLineBytes / kWordBytes;

/** Bit mask with one bit per word in a line. */
using WordMask = std::uint16_t;
static_assert(kWordsPerLine <= 16, "WordMask must cover a full line");

/** All words of a line selected. */
constexpr WordMask kFullLineMask = 0xffff;

/** Align an address down to its line base. */
constexpr Addr
lineAlign(Addr addr)
{
    return addr & ~static_cast<Addr>(kLineBytes - 1);
}

/**
 * Which of @p homes line-interleaved homes owns @p addr: consecutive
 * lines go to consecutive homes. L2 banks and the functional memory's
 * shards are both homed this way.
 */
constexpr std::size_t
lineHome(Addr addr, std::size_t homes)
{
    return (lineAlign(addr) / kLineBytes) % homes;
}

/** Align an address down to its word base. */
constexpr Addr
wordAlign(Addr addr)
{
    return addr & ~static_cast<Addr>(kWordBytes - 1);
}

/** Index of the word containing @p addr within its line. */
constexpr unsigned
wordInLine(Addr addr)
{
    return static_cast<unsigned>((addr & (kLineBytes - 1)) / kWordBytes);
}

/** Single-word mask for the word containing @p addr. */
constexpr WordMask
wordMaskOf(Addr addr)
{
    return static_cast<WordMask>(1u << wordInLine(addr));
}

/** Number of set bits in a word mask. */
constexpr unsigned
popcount(WordMask mask)
{
    unsigned n = 0;
    for (WordMask m = mask; m != 0; m &= (m - 1))
        ++n;
    return n;
}

} // namespace nosync

#endif // SIM_TYPES_HH
