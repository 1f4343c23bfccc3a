/**
 * @file
 * Lightweight statistics package.
 *
 * Components register named Scalar / Vector / Distribution statistics
 * inside a StatSet registry and keep the returned typed Handle<T> for
 * hot-path updates — no string lookup ever happens after
 * construction. The registry can dump a sorted human-readable report
 * and supports programmatic lookup via find(), which distinguishes an
 * absent statistic (nullptr) from one whose value is zero.
 */

#ifndef SIM_STATS_HH
#define SIM_STATS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace nosync
{
namespace stats
{

/**
 * A single accumulating value. The StatSet that registered it keeps
 * its name and description.
 */
class Scalar
{
  public:
    double value() const { return _value; }

    Scalar &
    operator+=(double v)
    {
        _value += v;
        return *this;
    }

    Scalar &
    operator++()
    {
        _value += 1.0;
        return *this;
    }

    void set(double v) { _value = v; }
    void reset() { _value = 0.0; }

  private:
    double _value = 0.0;
};

/** A named vector of accumulating values with per-entry subnames. */
class Vector
{
  public:
    Vector(std::string name, std::string desc,
           std::vector<std::string> subnames)
        : _name(std::move(name)), _desc(std::move(desc)),
          _subnames(std::move(subnames)), _values(_subnames.size(), 0.0)
    {}

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }
    std::size_t size() const { return _values.size(); }
    const std::string &subname(std::size_t i) const
    {
        return _subnames[i];
    }

    double value(std::size_t i) const { return _values[i]; }

    /** Index of @p subname, or -1 when no such entry exists. */
    int
    indexOf(const std::string &subname) const
    {
        for (std::size_t i = 0; i < _subnames.size(); ++i) {
            if (_subnames[i] == subname)
                return static_cast<int>(i);
        }
        return -1;
    }

    double
    total() const
    {
        double sum = 0.0;
        for (double v : _values)
            sum += v;
        return sum;
    }

    void add(std::size_t i, double v = 1.0) { _values[i] += v; }
    void reset() { _values.assign(_values.size(), 0.0); }

  private:
    std::string _name;
    std::string _desc;
    std::vector<std::string> _subnames;
    std::vector<double> _values;
};

/**
 * A named sample distribution: count / sum / min / max plus log2
 * buckets, from which percentiles are estimated.
 *
 * Bucket b holds samples in [2^(b-1), 2^b); bucket 0 holds samples
 * below 1. Percentile estimates interpolate linearly within the
 * containing bucket and are clamped to the observed [min, max], so
 * p100 == max exactly and single-sample distributions report that
 * sample for every percentile.
 */
class Distribution
{
  public:
    static constexpr std::size_t kBuckets = 64;

    Distribution(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    std::uint64_t bucket(std::size_t b) const { return _buckets[b]; }

    void
    sample(double v)
    {
        if (!_count || v < _min)
            _min = v;
        if (!_count || v > _max)
            _max = v;
        ++_count;
        _sum += v;
        ++_buckets[bucketOf(v)];
    }

    /** Estimate the @p p'th quantile, p in [0, 1]. */
    double percentile(double p) const;

    void
    reset()
    {
        _count = 0;
        _sum = _min = _max = 0.0;
        _buckets.fill(0);
    }

  private:
    static std::size_t
    bucketOf(double v)
    {
        if (v < 1.0)
            return 0;
        auto n = static_cast<std::uint64_t>(v);
        return std::min<std::size_t>(kBuckets - 1, std::bit_width(n));
    }

    std::string _name;
    std::string _desc;
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
    std::array<std::uint64_t, kBuckets> _buckets{};
};

/**
 * Typed reference to a registered statistic.
 *
 * Handles are what components cache at construction and update on the
 * hot path; they are trivially copyable and never dangle before their
 * owning StatSet is destroyed (statistics are never deregistered).
 * A default-constructed handle is empty and must not be dereferenced.
 *
 * Scalar-style update operators pass through, so `++h` and `h += v`
 * work on Handle<Scalar> exactly as they do on Scalar&.
 */
template <typename T>
class Handle
{
  public:
    Handle() = default;
    explicit Handle(T &stat) : _stat(&stat) {}

    explicit operator bool() const { return _stat != nullptr; }
    T &operator*() const { return *_stat; }
    T *operator->() const { return _stat; }

    Handle &
    operator++()
        requires requires(T t) { ++t; }
    {
        ++*_stat;
        return *this;
    }

    Handle &
    operator+=(double v)
        requires requires(T t) { t += v; }
    {
        *_stat += v;
        return *this;
    }

  private:
    T *_stat = nullptr;
};

/**
 * Registry of statistics, typically one per simulated System.
 *
 * Statistics are owned by the set and handed out as typed handles so
 * that components can update them without lookup cost on the hot
 * path. Registration is create-or-retrieve: registering the same name
 * twice yields a handle to the same statistic (a Vector re-registered
 * with a different shape panics).
 *
 * Scalars, by far the most numerous, are stored flat: their values in
 * registration order in fixed chunks that never move (so handles stay
 * valid and one component's counters share cache lines), their names
 * and descriptions back to back in one text buffer, and an
 * open-addressing hash index over the names. Registering one costs no
 * allocation of its own; dump() sorts the names when it renders.
 */
class StatSet
{
  public:
    /** Register (or retrieve) a scalar statistic. */
    Handle<Scalar> registerScalar(std::string_view name,
                                  std::string_view desc);

    /**
     * Register (or retrieve) the scalar named @p prefix followed by
     * @p leaf (say "l1.3" and ".load_hits"). The name is joined in the
     * set's own text buffer, so a component's per-instance names cost
     * no temporary string.
     */
    Handle<Scalar> registerScalar(std::string_view prefix,
                                  std::string_view leaf,
                                  std::string_view desc);

    /** Register (or retrieve) a vector statistic. */
    Handle<Vector>
    registerVector(const std::string &name, const std::string &desc,
                   const std::vector<std::string> &subnames);

    /** Register (or retrieve) a distribution statistic. */
    Handle<Distribution> registerDistribution(const std::string &name,
                                              const std::string &desc);

    /** Create (or retrieve an identically named) scalar statistic. */
    Scalar &scalar(std::string_view name, std::string_view desc);

    /** Create (or retrieve) a vector statistic. */
    Vector &vector(const std::string &name, const std::string &desc,
                   const std::vector<std::string> &subnames);

    /**
     * Look up a scalar; nullptr when absent, so a caller can tell
     * "never registered" (a typo'd name) from "registered but zero".
     */
    const Scalar *find(std::string_view name) const;

    /** Look up a vector; nullptr when absent. */
    const Vector *findVector(const std::string &name) const;

    /** Look up a distribution; nullptr when absent. */
    const Distribution *findDistribution(const std::string &name) const;

    /** Reset every statistic to zero. */
    void resetAll();

    /** Render the full sorted report. */
    std::string dump() const;

  private:
    /** Scalars per value chunk (4 KiB of values). */
    static constexpr std::size_t kScalarChunk = 512;

    /** Scalar i's name hash, and where its name and (right after
     *  it) its description sit in _scalarText. */
    struct ScalarText
    {
        std::size_t hash;
        std::uint32_t nameAt;
        std::uint32_t nameLen;
        std::uint32_t descLen;
    };

    Scalar &scalarAt(std::size_t i) const
    {
        return _scalarChunks[i / kScalarChunk][i % kScalarChunk];
    }
    std::string_view scalarName(std::size_t i) const;
    std::string_view scalarDesc(std::size_t i) const;

    /** Index slot holding @p name (whose hash is @p hash), or the
     *  empty slot where it goes. */
    std::size_t scalarSlot(std::string_view name, std::size_t hash) const;

    /** Double the hash index and re-insert every scalar. */
    void growScalarIndex();

    /** scalar() for the name @p prefix + @p leaf. */
    Scalar &joinedScalar(std::string_view prefix, std::string_view leaf,
                         std::string_view desc);

    /** Scalar values in registration order, kScalarChunk a chunk. */
    std::vector<std::unique_ptr<Scalar[]>> _scalarChunks;
    /** Per scalar, in registration order. */
    std::vector<ScalarText> _scalarTexts;
    /** Every scalar's name and description, back to back. */
    std::string _scalarText;
    /** Open-addressing (linear probing) index over the scalar names: a
     *  slot holds scalar index + 1, 0 when empty. Its size is a power
     *  of two at least twice the scalar count. */
    std::vector<std::uint32_t> _scalarIndex;

    std::map<std::string, std::unique_ptr<Vector>> _vectors;
    std::map<std::string, std::unique_ptr<Distribution>> _dists;
};

} // namespace stats
} // namespace nosync

#endif // SIM_STATS_HH
