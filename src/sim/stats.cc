#include "stats.hh"

#include <algorithm>
#include <functional>
#include <numeric>
#include <sstream>

#include "logging.hh"

namespace nosync
{
namespace stats
{

double
Distribution::percentile(double p) const
{
    if (!_count)
        return 0.0;
    double target = p * static_cast<double>(_count);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        if (!_buckets[b])
            continue;
        double before = static_cast<double>(cum);
        cum += _buckets[b];
        if (static_cast<double>(cum) < target)
            continue;
        double lo = b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
        double hi = static_cast<double>(1ull << b);
        double frac = (target - before) /
                      static_cast<double>(_buckets[b]);
        double est = lo + frac * (hi - lo);
        return std::min(std::max(est, _min), _max);
    }
    return _max;
}

Handle<Scalar>
StatSet::registerScalar(std::string_view name, std::string_view desc)
{
    return Handle<Scalar>(scalar(name, desc));
}

Handle<Scalar>
StatSet::registerScalar(std::string_view prefix, std::string_view leaf,
                        std::string_view desc)
{
    return Handle<Scalar>(joinedScalar(prefix, leaf, desc));
}

Handle<Vector>
StatSet::registerVector(const std::string &name,
                        const std::string &desc,
                        const std::vector<std::string> &subnames)
{
    return Handle<Vector>(vector(name, desc, subnames));
}

Handle<Distribution>
StatSet::registerDistribution(const std::string &name,
                              const std::string &desc)
{
    auto it = _dists.find(name);
    if (it != _dists.end())
        return Handle<Distribution>(*it->second);
    auto stat = std::make_unique<Distribution>(name, desc);
    Distribution &ref = *stat;
    _dists.emplace(name, std::move(stat));
    return Handle<Distribution>(ref);
}

std::string_view
StatSet::scalarName(std::size_t i) const
{
    const ScalarText &t = _scalarTexts[i];
    return std::string_view(_scalarText).substr(t.nameAt, t.nameLen);
}

std::string_view
StatSet::scalarDesc(std::size_t i) const
{
    const ScalarText &t = _scalarTexts[i];
    return std::string_view(_scalarText)
        .substr(t.nameAt + t.nameLen, t.descLen);
}

std::size_t
StatSet::scalarSlot(std::string_view name, std::size_t hash) const
{
    std::size_t mask = _scalarIndex.size() - 1;
    for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
        std::uint32_t entry = _scalarIndex[slot];
        if (entry == 0 || (_scalarTexts[entry - 1].hash == hash &&
                           scalarName(entry - 1) == name))
            return slot;
    }
}

void
StatSet::growScalarIndex()
{
    _scalarIndex.assign(std::max<std::size_t>(64, 2 * _scalarIndex.size()),
                        0);
    std::size_t mask = _scalarIndex.size() - 1;
    for (std::size_t i = 0; i < _scalarTexts.size(); ++i) {
        std::size_t slot = _scalarTexts[i].hash & mask;
        while (_scalarIndex[slot] != 0)
            slot = (slot + 1) & mask;
        _scalarIndex[slot] = static_cast<std::uint32_t>(i + 1);
    }
}

Scalar &
StatSet::scalar(std::string_view name, std::string_view desc)
{
    return joinedScalar(name, {}, desc);
}

Scalar &
StatSet::joinedScalar(std::string_view prefix, std::string_view leaf,
                      std::string_view desc)
{
    std::size_t i = _scalarTexts.size();
    // Keep the index at most half full. It grows before the probe, so
    // the empty slot the probe ends on is where a new name goes.
    if (2 * (i + 1) > _scalarIndex.size())
        growScalarIndex();
    // Join the name where a new scalar's name goes, at the end of the
    // text; a name already registered takes it off again.
    auto at = static_cast<std::uint32_t>(_scalarText.size());
    _scalarText.append(prefix).append(leaf);
    std::string_view name = std::string_view(_scalarText).substr(at);
    auto name_len = static_cast<std::uint32_t>(name.size());
    std::size_t hash = std::hash<std::string_view>{}(name);
    std::uint32_t &entry = _scalarIndex[scalarSlot(name, hash)];
    if (entry != 0) {
        _scalarText.resize(at);
        return scalarAt(entry - 1);
    }
    if (i % kScalarChunk == 0)
        _scalarChunks.push_back(std::make_unique<Scalar[]>(kScalarChunk));
    _scalarText.append(desc);
    _scalarTexts.push_back(
        {hash, at, name_len, static_cast<std::uint32_t>(desc.size())});
    entry = static_cast<std::uint32_t>(i + 1);
    return scalarAt(i);
}

Vector &
StatSet::vector(const std::string &name, const std::string &desc,
                const std::vector<std::string> &subnames)
{
    auto it = _vectors.find(name);
    if (it != _vectors.end()) {
        panic_if(it->second->size() != subnames.size(),
                 "vector stat ", name, " re-registered with different "
                 "shape");
        return *it->second;
    }
    auto stat = std::make_unique<Vector>(name, desc, subnames);
    Vector &ref = *stat;
    _vectors.emplace(name, std::move(stat));
    return ref;
}

const Scalar *
StatSet::find(std::string_view name) const
{
    if (_scalarIndex.empty())
        return nullptr;
    std::uint32_t entry = _scalarIndex[scalarSlot(
        name, std::hash<std::string_view>{}(name))];
    return entry == 0 ? nullptr : &scalarAt(entry - 1);
}

const Vector *
StatSet::findVector(const std::string &name) const
{
    auto it = _vectors.find(name);
    return it == _vectors.end() ? nullptr : it->second.get();
}

const Distribution *
StatSet::findDistribution(const std::string &name) const
{
    auto it = _dists.find(name);
    return it == _dists.end() ? nullptr : it->second.get();
}

void
StatSet::resetAll()
{
    for (std::size_t i = 0; i < _scalarTexts.size(); ++i)
        scalarAt(i).reset();
    for (auto &kv : _vectors)
        kv.second->reset();
    for (auto &kv : _dists)
        kv.second->reset();
}

std::string
StatSet::dump() const
{
    // Scalars in name order, as the report has always listed them.
    std::vector<std::uint32_t> order(_scalarTexts.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return scalarName(a) < scalarName(b);
              });
    std::ostringstream os;
    for (std::uint32_t i : order) {
        os << scalarName(i) << " " << scalarAt(i).value() << " # "
           << scalarDesc(i) << "\n";
    }
    for (const auto &kv : _vectors) {
        const Vector &vec = *kv.second;
        for (std::size_t i = 0; i < vec.size(); ++i) {
            os << kv.first << "::" << vec.subname(i) << " "
               << vec.value(i) << "\n";
        }
        os << kv.first << "::total " << vec.total() << " # "
           << vec.desc() << "\n";
    }
    for (const auto &kv : _dists) {
        const Distribution &d = *kv.second;
        os << kv.first << " count=" << d.count()
           << " mean=" << d.mean() << " p50=" << d.percentile(0.5)
           << " p95=" << d.percentile(0.95) << " max=" << d.max()
           << " # " << d.desc() << "\n";
    }
    return os.str();
}

} // namespace stats
} // namespace nosync
