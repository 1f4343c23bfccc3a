/**
 * @file
 * Shared timing parameters for the cache hierarchy (Table 3).
 */

#ifndef COHERENCE_CACHE_TIMINGS_HH
#define COHERENCE_CACHE_TIMINGS_HH

#include "sim/types.hh"

namespace nosync
{

/** Latency knobs for L1/L2/DRAM (values are GPU cycles). */
struct CacheTimings
{
    /** L1 hit latency. */
    Cycles l1Hit = 1;
    /** L2 bank access (tag + data) latency. */
    Cycles l2Access = 29;
    /** DRAM access latency beyond the L2. */
    Cycles dramLatency = 160;

    /**
     * L2 bank initiation interval: the bank is pipelined, accepting
     * a new access every l2CycleTime cycles. Contended atomics (e.g.
     * a spinning herd hitting one lock's home bank) queue here.
     */
    Cycles l2CycleTime = 4;

    /**
     * Latency of an atomic performed at the L1 (read-modify-write
     * through the atomic unit's pipeline). Also paces spin loops:
     * a thread block cannot retry a lock faster than this.
     */
    Cycles l1Atomic = 12;
};

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
