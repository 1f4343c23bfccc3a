/**
 * @file
 * Set-associative cache tag/data array with per-word coherence state.
 *
 * One line type serves every protocol in the study:
 *  - GPU L1s use the line-valid bit plus (under HRF) the per-word dirty
 *    mask for partial-block flushes.
 *  - DeNovo L1s use the per-word Invalid/Valid/Registered states.
 *  - DeNovo L2 banks (the registry) additionally use the per-word owner
 *    field: a word is either backed by data here or registered to an L1.
 * Unused fields cost simulator memory only, never simulated time.
 */

#ifndef MEM_CACHE_ARRAY_HH
#define MEM_CACHE_ARRAY_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "mem/functional_mem.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace nosync
{

/** Per-word coherence state (DeNovo's three stable states). */
enum class WordState : std::uint8_t
{
    Invalid = 0,
    Valid = 1,
    Registered = 2,
};

/** One cache line frame. */
struct CacheLine
{
    /** Line-aligned address of the cached block; meaningless unless
     *  valid. */
    Addr addr = 0;

    /** Whether the frame holds a line at all. */
    bool valid = false;

    /** Word values. */
    LineData data{};

    /** Per-word coherence state (DeNovo). */
    std::array<WordState, kWordsPerLine> wstate{};

    /** Per-word owner node (DeNovo L2 registry only). */
    std::array<std::int16_t, kWordsPerLine> owner{};

    /** Words written locally and not yet made globally visible. */
    WordMask dirty = 0;

    /** LRU timestamp. */
    std::uint64_t lruStamp = 0;

    /**
     * Acquire epoch at which this line's Valid words were filled.
     * L1 controllers implement flash/self invalidation lazily: an
     * acquire bumps the controller's epoch in O(1), and a line whose
     * epoch lags is swept on next touch. Registered words (DeNovo),
     * read-only-region words (DD+RO), and locally dirty words (GPU
     * HRF) are exempt from the sweep per their protocol's rules.
     */
    std::uint64_t epoch = 0;

    /** Mask of words in the given state. */
    WordMask
    maskInState(WordState st) const
    {
        WordMask mask = 0;
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            if (wstate[w] == st)
                mask |= static_cast<WordMask>(1u << w);
        }
        return mask;
    }

    /** Reset the frame to an empty state. */
    void
    clear()
    {
        valid = false;
        dirty = 0;
        epoch = 0;
        data = LineData{};
        wstate.fill(WordState::Invalid);
        owner.fill(static_cast<std::int16_t>(kNoNode));
    }
};

/**
 * Tag/data array with LRU replacement.
 *
 * Pure storage: all timing and protocol decisions live in the
 * controllers. Victim selection never evicts here; the controller asks
 * for a victim, performs any writeback/recall protocol work, then
 * installs the new line.
 *
 * Sets materialize on first use, and only a live set has frames. Each
 * set has a frame pointer, nullptr while the set is dead. Victim
 * selection (the only way to a frame that install accepts) gives a
 * dead set the next assoc frames of the newest chunk, clears them and
 * sets the set's live bit. When a chunk is full the array allocates a
 * new one with room for as many sets as are live already (one at
 * first), so a run's frames take at most twice what its live sets
 * need. Chunks never move and are freed with the array, so a frame
 * pointer stays valid. lookup reads the set's pointer and forEachValid
 * walks the live bits, so neither reads a dead set. A dead set holds
 * no valid frame and a fresh set's first victim is way 0, so every
 * result is the one an eagerly cleared array would give, while a run
 * pays only for the sets it touches.
 */
class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     */
    CacheArray(std::size_t size_bytes, unsigned assoc)
        : _assoc(assoc),
          _numSets(static_cast<unsigned>(size_bytes / kLineBytes / assoc)),
          _live((_numSets + 63) / 64, 0),
          _sets(std::make_unique<CacheLine *[]>(_numSets))
    {
        panic_if(_numSets == 0, "cache too small: ", size_bytes, " B / ",
                 assoc, "-way");
        panic_if((_numSets & (_numSets - 1)) != 0,
                 "number of sets must be a power of two, got ",
                 _numSets);
    }

    ~CacheArray()
    {
        // CacheLine is trivially destructible: releasing a chunk ends
        // the lifetime of every frame in it.
        while (_chunks != nullptr) {
            Chunk *older = _chunks->older;
            ::operator delete(_chunks);
            _chunks = older;
        }
    }

    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;

    unsigned assoc() const { return _assoc; }
    std::size_t numSets() const { return _numSets; }

    /** Number of sets materialized so far. */
    std::size_t liveSets() const { return _liveSets; }

    /** Find the frame holding @p line_addr, or nullptr. */
    CacheLine *
    lookup(Addr line_addr)
    {
        line_addr = lineAlign(line_addr);
        CacheLine *frames = _sets[setOf(line_addr)];
        if (frames == nullptr)
            return nullptr;
        for (unsigned way = 0; way < _assoc; ++way) {
            if (frames[way].valid && frames[way].addr == line_addr)
                return &frames[way];
        }
        return nullptr;
    }

    const CacheLine *
    lookup(Addr line_addr) const
    {
        return const_cast<CacheArray *>(this)->lookup(line_addr);
    }

    /**
     * Pick the replacement victim frame for @p line_addr: an invalid
     * frame if one exists, otherwise the LRU frame. The caller is
     * responsible for cleaning up the victim's contents before reuse.
     */
    CacheLine *
    findVictim(Addr line_addr)
    {
        CacheLine *set = liveSet(lineAlign(line_addr));
        CacheLine *victim = &set[0];
        for (unsigned way = 0; way < _assoc; ++way) {
            if (!set[way].valid)
                return &set[way];
            if (set[way].lruStamp < victim->lruStamp)
                victim = &set[way];
        }
        return victim;
    }

    /**
     * Victim selection with a preference predicate: an invalid frame
     * if any, else the LRU frame satisfying @p preferred, else the
     * overall LRU frame. Used by the DeNovo registry to avoid
     * evicting lines with registered words when possible.
     */
    template <typename Pred>
    CacheLine *
    findVictimPreferring(Addr line_addr, Pred &&preferred)
    {
        CacheLine *set = liveSet(lineAlign(line_addr));
        CacheLine *best_pref = nullptr;
        CacheLine *best_any = &set[0];
        for (unsigned way = 0; way < _assoc; ++way) {
            CacheLine &line = set[way];
            if (!line.valid)
                return &line;
            if (line.lruStamp < best_any->lruStamp)
                best_any = &line;
            if (preferred(line) &&
                (!best_pref || line.lruStamp < best_pref->lruStamp)) {
                best_pref = &line;
            }
        }
        return best_pref ? best_pref : best_any;
    }

    /** Mark @p line most recently used. */
    void touch(CacheLine &line) { line.lruStamp = ++_lruCounter; }

    /**
     * Install a (previously cleaned) frame for @p line_addr and mark it
     * most recently used.
     */
    void
    install(CacheLine &frame, Addr line_addr)
    {
        frame.clear();
        frame.addr = lineAlign(line_addr);
        frame.valid = true;
        touch(frame);
    }

    /**
     * Iterate over every valid frame (for flash operations and
     * checker sweeps), in ascending set order and then way order.
     */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (std::size_t word = 0; word < _live.size(); ++word) {
            for (std::uint64_t bits = _live[word]; bits != 0;
                 bits &= bits - 1) {
                std::size_t set =
                    word * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits));
                CacheLine *frames = _sets[set];
                for (unsigned way = 0; way < _assoc; ++way) {
                    if (frames[way].valid)
                        fn(frames[way]);
                }
            }
        }
    }

    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        const_cast<CacheArray *>(this)->forEachValid(
            [&fn](const CacheLine &line) { fn(line); });
    }

  private:
    /** Header of a chunk of frames; the frames follow it. */
    struct Chunk
    {
        /** The chunk allocated before this one, or nullptr. */
        Chunk *older;
    };
    static_assert(sizeof(Chunk) % alignof(CacheLine) == 0);
    static_assert(std::is_trivially_destructible_v<CacheLine>);

    std::size_t
    setOf(Addr line_addr) const
    {
        return (line_addr / kLineBytes) & (_numSets - 1);
    }

    /** The frames of @p line_addr's set, taken and cleared on first
     *  use. */
    CacheLine *
    liveSet(Addr line_addr)
    {
        std::size_t set = setOf(line_addr);
        CacheLine *&frames = _sets[set];
        if (frames != nullptr)
            return frames;
        frames = takeFrames();
        ++_liveSets;
        _live[set / 64] |= std::uint64_t{1} << (set % 64);
        for (unsigned way = 0; way < _assoc; ++way)
            std::construct_at(&frames[way])->clear();
        return frames;
    }

    /**
     * The next set's worth of unconstructed frames. Chunks start at
     * live-set counts 0, 1, 2, 4, 8, ..., each with room for
     * max(1, live) sets, so the newest chunk is full exactly when the
     * count is 0 or a power of two.
     */
    CacheLine *
    takeFrames()
    {
        std::size_t rank = _liveSets;
        if ((rank & (rank - 1)) == 0) {
            std::size_t sets = std::max<std::size_t>(rank, 1);
            void *raw = ::operator new(sizeof(Chunk) +
                                       sets * _assoc * sizeof(CacheLine));
            _chunks = ::new (raw) Chunk{_chunks};
            return firstFrame(_chunks);
        }
        return firstFrame(_chunks) + (rank - std::bit_floor(rank)) * _assoc;
    }

    static CacheLine *
    firstFrame(Chunk *chunk)
    {
        return reinterpret_cast<CacheLine *>(chunk + 1);
    }

    unsigned _assoc;
    unsigned _numSets;
    /** One bit per set, set when its frames are taken: forEachValid
     *  walks these words rather than a pointer per set. */
    std::vector<std::uint64_t> _live;
    /** Per set: its assoc frames, nullptr while it is dead. */
    std::unique_ptr<CacheLine *[]> _sets;
    /** The newest chunk, linked to the older ones. */
    Chunk *_chunks = nullptr;
    /** Sets materialized so far. */
    std::size_t _liveSets = 0;
    std::uint64_t _lruCounter = 0;
};

} // namespace nosync

#endif // MEM_CACHE_ARRAY_HH
