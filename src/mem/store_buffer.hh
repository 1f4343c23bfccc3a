/**
 * @file
 * Coalescing store buffer.
 *
 * Both protocol families buffer data stores next to the L1 (Table 3:
 * 256 entries). Entries are word-granularity and coalesce: a second
 * store to a buffered word overwrites in place. On a release (or
 * overflow, or kernel end) the controller drains the buffer — GPU
 * coherence writes the words through to the L2; DeNovo issues
 * registration (ownership) requests instead.
 */

#ifndef MEM_STORE_BUFFER_HH
#define MEM_STORE_BUFFER_HH

#include <cstdint>
#include <vector>

#include "mem/functional_mem.hh"
#include "mem/line_table.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace nosync
{

/** Word-granularity coalescing write buffer. */
class StoreBuffer
{
  public:
    explicit StoreBuffer(std::size_t capacity) : _capacity(capacity) {}

    std::size_t capacity() const { return _capacity; }
    std::size_t size() const { return _words; }
    bool empty() const { return _words == 0; }
    bool full() const { return _words >= _capacity; }

    /** Whether a buffered store to @p addr exists. */
    bool
    contains(Addr addr) const
    {
        const Line *line = _lines.find(addr);
        return line && (line->mask & wordMaskOf(addr));
    }

    /** Value of the buffered store to @p addr. @pre contains(addr) */
    std::uint32_t
    value(Addr addr) const
    {
        panic_if(!contains(addr), "store buffer miss on value()");
        return _lines.find(addr)->data[wordInLine(addr)];
    }

    /**
     * Insert or coalesce a store.
     * @return true if the store coalesced into an existing entry.
     * @pre !full() unless the word is already buffered
     */
    bool
    insert(Addr addr, std::uint32_t value)
    {
        if (contains(addr)) {
            _lines.find(addr)->data[wordInLine(addr)] = value;
            return true;
        }
        panic_if(full(), "store buffer overflow must be drained by the "
                 "controller before insert");
        Line &line = _lines[addr];
        line.mask |= wordMaskOf(addr);
        line.data[wordInLine(addr)] = value;
        ++_words;
        return false;
    }

    /** Remove the entry for @p addr if present. */
    void
    erase(Addr addr)
    {
        Line *line = _lines.find(addr);
        if (!line || !(line->mask & wordMaskOf(addr)))
            return;
        line->mask &= static_cast<WordMask>(~wordMaskOf(addr));
        --_words;
        if (line->mask == 0)
            _lines.erase(addr);
    }

    /** Drop every entry. */
    void
    clear()
    {
        _lines.clear();
        _words = 0;
    }

    /** One line's worth of drained stores. */
    struct DrainGroup
    {
        Addr lineAddr;
        WordMask mask;
        LineData data;
    };

    /**
     * Collect all buffered stores grouped by cache line, clearing the
     * buffer. Groups are ordered by line address for determinism.
     */
    std::vector<DrainGroup>
    drain()
    {
        std::vector<DrainGroup> out;
        out.reserve(_lines.size());
        _lines.forEachSorted([&](Addr line_addr, const Line &line) {
            out.push_back({line_addr, line.mask, line.data});
        });
        clear();
        return out;
    }

  private:
    /** One line's buffered words: which are present, and values. */
    struct Line
    {
        WordMask mask = 0;
        LineData data{};
    };

    std::size_t _capacity;
    /** Slab-recycled per-line entries: buffering allocates nothing. */
    LineTable<Line> _lines;
    /** Buffered words across all lines (the capacity unit). */
    std::size_t _words = 0;
};

} // namespace nosync

#endif // MEM_STORE_BUFFER_HH
