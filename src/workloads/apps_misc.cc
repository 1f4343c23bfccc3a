/**
 * @file
 * Streaming and n-body style applications: NN and LavaMD.
 */

#include "workloads/apps.hh"

namespace nosync
{

namespace
{

std::uint32_t
seedValue(std::uint32_t i, std::uint32_t salt)
{
    return ((i * 2654435761u) ^ (salt * 40503u)) & 0xff;
}

} // namespace

// ---------------------------------------------------------------------
// NN
// ---------------------------------------------------------------------

Nn::Nn(unsigned records, unsigned tbs) : _records(records), _tbs(tbs)
{
}

void
Nn::init(WorkloadEnv &env)
{
    _data = env.alloc(static_cast<Addr>(_records) * kWordBytes);
    _results = env.alloc(static_cast<Addr>(_tbs) * kWordBytes);

    std::vector<std::uint32_t> data(_records);
    for (unsigned i = 0; i < _records; ++i) {
        data[i] = seedValue(i, 47);
        env.writeInit(_data + static_cast<Addr>(i) * kWordBytes,
                      data[i]);
    }
    env.declareReadOnly(_data,
                        static_cast<Addr>(_records) * kWordBytes);

    // Expected per-TB minimum "distance" to the query value 128.
    _expect.assign(_tbs, 0xffffffffu);
    unsigned per = (_records + _tbs - 1) / _tbs;
    for (unsigned tb = 0; tb < _tbs; ++tb) {
        unsigned lo = tb * per;
        unsigned hi = std::min(_records, lo + per);
        for (unsigned i = lo; i < hi; ++i) {
            std::uint32_t d = data[i] > 128 ? data[i] - 128
                                            : 128 - data[i];
            _expect[tb] = std::min(_expect[tb], (d << 16) | (i & 0xffff));
        }
    }
}

KernelInfo
Nn::kernelInfo(unsigned) const
{
    return {_tbs};
}

SimTask
Nn::tbMain(TbContext &ctx)
{
    unsigned per = (_records + _tbs - 1) / _tbs;
    unsigned lo = ctx.tbGlobal() * per;
    unsigned hi = std::min(_records, lo + per);

    std::uint32_t best = 0xffffffffu;
    for (unsigned i = lo; i < hi; ++i) {
        std::uint32_t v = co_await ctx.load(
            _data + static_cast<Addr>(i) * kWordBytes);
        std::uint32_t d = v > 128 ? v - 128 : 128 - v;
        best = std::min(best, (d << 16) | (i & 0xffff));
    }
    co_await ctx.store(_results + static_cast<Addr>(ctx.tbGlobal()) *
                                      kWordBytes,
                       best);
}

std::vector<std::string>
Nn::check(WorkloadEnv &env)
{
    return compareArray(env, "NN", _results, _expect);
}

// ---------------------------------------------------------------------
// LavaMD
// ---------------------------------------------------------------------

LavaMd::LavaMd(unsigned boxes_per_dim, unsigned particles)
    : _dim(boxes_per_dim), _particles(particles),
      _numBoxes(boxes_per_dim * boxes_per_dim * boxes_per_dim)
{
}

unsigned
LavaMd::boxId(unsigned x, unsigned y, unsigned z) const
{
    return (z * _dim + y) * _dim + x;
}

void
LavaMd::init(WorkloadEnv &env)
{
    // Per particle: one position word (read-only) and one force word
    // rewritten once per neighbor box - the access pattern that
    // overflows the store buffer and that DeNovo's ownership turns
    // into L1 hits (Section 6.2.1 of the paper).
    unsigned total = _numBoxes * _particles;
    // Four words per particle so each CU's force footprint exceeds
    // the 256-entry store buffer.
    unsigned words = total * 4;
    _pos = env.alloc(static_cast<Addr>(words) * kWordBytes);
    _force = env.alloc(static_cast<Addr>(words) * kWordBytes);

    std::vector<std::uint32_t> pos(words);
    for (unsigned i = 0; i < words; ++i) {
        pos[i] = seedValue(i, 53);
        env.writeInit(_pos + static_cast<Addr>(i) * kWordBytes,
                      pos[i]);
    }
    env.declareReadOnly(_pos, static_cast<Addr>(words) * kWordBytes);

    // Host-side expected forces.
    _expect.assign(words, 0);
    for (unsigned z = 0; z < _dim; ++z) {
        for (unsigned y = 0; y < _dim; ++y) {
            for (unsigned x = 0; x < _dim; ++x) {
                unsigned box = boxId(x, y, z);
                for (int dz = -1; dz <= 1; ++dz) {
                    for (int dy = -1; dy <= 1; ++dy) {
                        for (int dx = -1; dx <= 1; ++dx) {
                            unsigned nb = boxId(
                                (x + _dim + dx) % _dim,
                                (y + _dim + dy) % _dim,
                                (z + _dim + dz) % _dim);
                            for (unsigned p = 0;
                                 p < _particles * 4; ++p) {
                                unsigned self =
                                    box * _particles * 4 + p;
                                unsigned other =
                                    nb * _particles * 4 + p;
                                _expect[self] +=
                                    pos[self] * pos[other] + 1;
                            }
                        }
                    }
                }
            }
        }
    }
}

KernelInfo
LavaMd::kernelInfo(unsigned) const
{
    return {_numBoxes};
}

SimTask
LavaMd::tbMain(TbContext &ctx)
{
    unsigned box = ctx.tbGlobal();
    unsigned x = box % _dim;
    unsigned y = (box / _dim) % _dim;
    unsigned z = box / (_dim * _dim);
    unsigned words = _particles * 4;
    Addr self_pos = _pos + static_cast<Addr>(box) * words * kWordBytes;
    Addr self_force =
        _force + static_cast<Addr>(box) * words * kWordBytes;

    for (int dz = -1; dz <= 1; ++dz) {
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                unsigned nb = boxId((x + _dim + dx) % _dim,
                                    (y + _dim + dy) % _dim,
                                    (z + _dim + dz) % _dim);
                Addr nb_pos = _pos + static_cast<Addr>(nb) * words *
                                         kWordBytes;
                for (unsigned p = 0; p < words; ++p) {
                    std::uint32_t mine = co_await ctx.load(
                        self_pos + static_cast<Addr>(p) *
                                       kWordBytes);
                    std::uint32_t theirs = co_await ctx.load(
                        nb_pos + static_cast<Addr>(p) * kWordBytes);
                    Addr faddr = self_force +
                                 static_cast<Addr>(p) * kWordBytes;
                    std::uint32_t f = co_await ctx.load(faddr);
                    co_await ctx.store(faddr,
                                       f + mine * theirs + 1);
                }
            }
        }
    }
}

std::vector<std::string>
LavaMd::check(WorkloadEnv &env)
{
    // One expected word per force word (init), so the whole force
    // array is compared.
    return compareArray(env, "LAVA", _force, _expect);
}

} // namespace nosync
