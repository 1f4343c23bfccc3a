#include "stats.hh"

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
StatSet::registerScalar(const std::string &name,
                        const std::string &desc)
{
    return Handle<Scalar>(scalar(name, desc));
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

Scalar &
StatSet::scalar(const std::string &name, const std::string &desc)
{
    auto it = _scalars.find(name);
    if (it != _scalars.end())
        return *it->second;
    auto stat = std::make_unique<Scalar>(name, desc);
    Scalar &ref = *stat;
    _scalars.emplace(name, std::move(stat));
    return ref;
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
StatSet::find(const std::string &name) const
{
    auto it = _scalars.find(name);
    return it == _scalars.end() ? nullptr : it->second.get();
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
    for (auto &kv : _scalars)
        kv.second->reset();
    for (auto &kv : _vectors)
        kv.second->reset();
    for (auto &kv : _dists)
        kv.second->reset();
}

std::string
StatSet::dump() const
{
    std::ostringstream os;
    for (const auto &kv : _scalars) {
        os << kv.first << " " << kv.second->value() << " # "
           << kv.second->desc() << "\n";
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
