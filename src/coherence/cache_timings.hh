/**
 * @file
 * The cache hierarchy's latencies (Table 3, constants) and its
 * capacities (CacheGeometry, set per machine).
 */

#ifndef COHERENCE_CACHE_TIMINGS_HH
#define COHERENCE_CACHE_TIMINGS_HH

#include "sim/types.hh"

namespace nosync
{

/** L1 hit latency (GPU cycles, as are the latencies below). */
constexpr Cycles kL1HitLatency = 1;
/** L2 bank access (tag + data) latency. */
constexpr Cycles kL2AccessLatency = 29;
/** DRAM access latency beyond the L2. */
constexpr Cycles kDramLatency = 160;

/**
 * L2 bank initiation interval: the bank is pipelined, accepting a new
 * access every kL2CycleTime cycles. Contended atomics (e.g. a spinning
 * herd hitting one lock's home bank) queue here.
 */
constexpr Cycles kL2CycleTime = 4;

/**
 * Latency of an atomic performed at the L1 (read-modify-write through
 * the atomic unit's pipeline). Also paces spin loops: a thread block
 * cannot retry a lock faster than this.
 */
constexpr Cycles kL1AtomicLatency = 12;

/** Capacity knobs (Table 3). */
struct CacheGeometry
{
    std::size_t l1Bytes = 32 * 1024;
    unsigned l1Assoc = 8;
    /** Per-bank L2 capacity (4 MB total / 16 banks). */
    std::size_t l2BankBytes = 256 * 1024;
    unsigned l2Assoc = 16;
    std::size_t storeBufferEntries = 256;
    std::size_t l1MshrEntries = 64;
    std::size_t l2MshrEntries = 64;
};

} // namespace nosync

#endif // COHERENCE_CACHE_TIMINGS_HH
