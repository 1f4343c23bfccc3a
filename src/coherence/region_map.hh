/**
 * @file
 * Software region information (DD+RO and DD+PR).
 *
 * Region properties are hardware-oblivious, program-level facts the
 * application declares about address ranges:
 *
 *  - ReadOnly (DD+RO): never written during the current kernel, so
 *    reads survive acquire self-invalidations. The paper conveys the
 *    information through an opcode bit; here the map plays that role.
 *  - Streaming (DD+PR): written at most once per synchronization
 *    phase and read by many consumers next phase (frontiers, message
 *    buffers). Registering such words only migrates ownership to a
 *    writer that will never reuse it, so stores bypass registration
 *    and write through to the home L2 bank instead, GPU-style.
 *  - Owned: the default for every undeclared address — plain DeNovo
 *    ownership registration.
 *
 * The map stores every declared range as a sorted, non-overlapping
 * flat vector, coalescing overlapping and adjacent declarations of
 * the **same** policy at insertion time. That representation is both
 * correct and fast:
 *
 *  - Correct: an earlier `std::map<base, end>` keyed by base consulted
 *    only the immediate predecessor range of a probed address, so a
 *    nested or overlapping declaration *shadowed* an earlier covering
 *    range, and re-declaring the same base with a smaller size
 *    silently shrank the range. DD+RO would then self-invalidate words
 *    the program had legitimately declared read-only — wrong sharing
 *    behavior, not just a slowdown. With coalesced disjoint ranges the
 *    predecessor check is exact for any declaration pattern.
 *
 *  - Fast: `isReadOnly` runs on the fill path (one probe per installed
 *    word under DD+RO). A branchless binary search over a flat vector
 *    beats pointer-chasing a red-black tree, and the mask queries walk
 *    the (few) ranges overlapping one line instead of probing per word.
 *
 * Conflicting declarations — two overlapping ranges with different
 * policies — are a program error: the later declaration is rejected
 * (the established range keeps its policy, so the map stays sorted
 * and disjoint) and the conflict is recorded for `validate()`, which
 * the system checks before running. Adjacency across policies is
 * legal and never merges.
 */

#ifndef COHERENCE_REGION_MAP_HH
#define COHERENCE_REGION_MAP_HH

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace nosync
{

/** Program-declared per-region protocol policy (DD+PR). */
enum class RegionPolicy : std::uint8_t
{
    Owned = 0,  ///< default: DeNovo ownership registration
    ReadOnly,   ///< DD+RO: exempt from acquire self-invalidation
    Streaming,  ///< DD+PR: stores bypass registration, write through
};

/** Printable policy name (diagnostics and conflict reports). */
inline const char *
regionPolicyName(RegionPolicy policy)
{
    switch (policy) {
      case RegionPolicy::Owned:
        return "owned";
      case RegionPolicy::ReadOnly:
        return "read-only";
      case RegionPolicy::Streaming:
        return "streaming";
    }
    return "?";
}

/** Map from declared byte ranges to their region policy. */
class RegionMap
{
  public:
    /**
     * Declare [base, base+bytes) as @p policy. Same-policy overlaps
     * and adjacency coalesce (union semantics, as before); an overlap
     * with a different established policy is recorded as a conflict
     * and the new declaration is dropped. @return true iff accepted.
     */
    bool
    declare(Addr base, Addr bytes, RegionPolicy policy)
    {
        if (bytes == 0)
            return true;
        Addr end = base + bytes;

        // Window of every range overlapping or adjacent to
        // [base, end). Declarations are init-time rare, so the linear
        // splice is fine.
        std::size_t lo = 0;
        while (lo < _ranges.size() && _ranges[lo].end < base)
            ++lo;
        std::size_t hi = lo;
        while (hi < _ranges.size() && _ranges[hi].base <= end)
            ++hi;

        // Strict overlap with a different policy is a program error:
        // reject, keep the established range authoritative, and leave
        // the report for validate(). (Merely adjacent different-policy
        // ranges are legal; they sit at the window's edges.)
        for (std::size_t i = lo; i < hi; ++i) {
            const Range &r = _ranges[i];
            if (r.policy != policy && r.base < end && r.end > base) {
                std::ostringstream os;
                os << regionPolicyName(policy) << " region [0x"
                   << std::hex << base << ", 0x" << end
                   << ") overlaps " << regionPolicyName(r.policy)
                   << " region [0x" << r.base << ", 0x" << r.end
                   << ")" << std::dec;
                _conflicts.push_back(os.str());
                return false;
            }
        }

        // Trim different-policy (adjacent-only) neighbors out of the
        // merge window so they never coalesce across policies.
        if (lo < hi && _ranges[lo].policy != policy)
            ++lo;
        if (lo < hi && _ranges[hi - 1].policy != policy)
            --hi;

        if (lo < hi) {
            base = std::min(base, _ranges[lo].base);
            end = std::max(end, _ranges[hi - 1].end);
            _ranges.erase(_ranges.begin() +
                              static_cast<std::ptrdiff_t>(lo),
                          _ranges.begin() +
                              static_cast<std::ptrdiff_t>(hi));
        }
        _ranges.insert(_ranges.begin() +
                           static_cast<std::ptrdiff_t>(lo),
                       Range{base, end, policy});
        return true;
    }

    /** Declare [base, base+bytes) read-only (the DD+RO entry point). */
    void
    addReadOnly(Addr base, Addr bytes)
    {
        declare(base, bytes, RegionPolicy::ReadOnly);
    }

    /** Drop every declared range (e.g. between kernels). */
    void
    clear()
    {
        _ranges.clear();
        _conflicts.clear();
    }

    /**
     * Conflicting declarations accumulated so far (overlaps across
     * policies). Empty means every declaration was consistent; the
     * system fails a run whose workload left conflicts here.
     */
    const std::vector<std::string> &validate() const
    {
        return _conflicts;
    }

    /** Policy of the word at @p addr (Owned when undeclared). */
    RegionPolicy
    policyAt(Addr addr) const
    {
        std::size_t i = firstAbove(addr);
        if (i != 0 && addr < _ranges[i - 1].end)
            return _ranges[i - 1].policy;
        return RegionPolicy::Owned;
    }

    /** Whether the word at @p addr lies in a read-only range. */
    bool
    isReadOnly(Addr addr) const
    {
        return policyAt(addr) == RegionPolicy::ReadOnly;
    }

    /** Whether the word at @p addr lies in a streaming range. */
    bool
    isStreaming(Addr addr) const
    {
        return policyAt(addr) == RegionPolicy::Streaming;
    }

    /** Mask of read-only words within the line at @p line_addr. */
    WordMask
    readOnlyMask(Addr line_addr) const
    {
        return maskFor(line_addr, RegionPolicy::ReadOnly);
    }

    /** Mask of streaming words within the line at @p line_addr. */
    WordMask
    streamingMask(Addr line_addr) const
    {
        return maskFor(line_addr, RegionPolicy::Streaming);
    }

    bool empty() const { return _ranges.empty(); }

    /** Coalesced range count (tests: observes adjacency merging). */
    std::size_t rangeCount() const { return _ranges.size(); }

  private:
    /** A coalesced [base, end) byte range with its policy. */
    struct Range
    {
        Addr base;
        Addr end;
        RegionPolicy policy;
    };

    /** Mask of words of @p policy within the line at @p line_addr. */
    WordMask
    maskFor(Addr line_addr, RegionPolicy policy) const
    {
        if (_ranges.empty())
            return 0;
        line_addr = lineAlign(line_addr);
        Addr line_end = line_addr + kLineBytes;

        // One probe for the line, then walk the ranges overlapping
        // it; a word matches iff its base address is covered.
        std::size_t i = firstAbove(line_addr);
        if (i > 0 && _ranges[i - 1].end > line_addr)
            --i;
        WordMask mask = 0;
        for (; i < _ranges.size() && _ranges[i].base < line_end; ++i) {
            if (_ranges[i].policy != policy)
                continue;
            Addr lo = std::max(_ranges[i].base, line_addr);
            Addr hi = std::min(_ranges[i].end, line_end);
            unsigned first = static_cast<unsigned>(
                (lo - line_addr + kWordBytes - 1) / kWordBytes);
            unsigned last = static_cast<unsigned>(
                (hi - line_addr + kWordBytes - 1) / kWordBytes);
            if (first >= last)
                continue;
            mask |= static_cast<WordMask>(
                ((1u << last) - 1u) & ~((1u << first) - 1u));
        }
        return mask;
    }

    /** Index of the first range with base > addr (branchless probe). */
    std::size_t
    firstAbove(Addr addr) const
    {
        const Range *ranges = _ranges.data();
        std::size_t lo = 0;
        std::size_t n = _ranges.size();
        while (n > 0) {
            std::size_t half = n >> 1;
            // Compiles to a conditional move: no data-dependent
            // branch for the predictor to miss on.
            bool right = ranges[lo + half].base <= addr;
            lo = right ? lo + half + 1 : lo;
            n = right ? n - half - 1 : half;
        }
        return lo;
    }

    /** Sorted, non-overlapping; same-policy neighbors coalesced. */
    std::vector<Range> _ranges;

    /** Rejected cross-policy overlap declarations. */
    std::vector<std::string> _conflicts;
};

} // namespace nosync

#endif // COHERENCE_REGION_MAP_HH
