/**
 * @file
 * Linear-algebra style applications: Backprop, LUD, NW, SGEMM.
 */


#include "sim/logging.hh"
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
// Backprop
// ---------------------------------------------------------------------

Backprop::Backprop(unsigned in_units, unsigned hid_units)
    : _in(in_units), _hid(hid_units)
{
}

void
Backprop::init(WorkloadEnv &env)
{
    _input = env.alloc(static_cast<Addr>(_in) * kWordBytes);
    _weights =
        env.alloc(static_cast<Addr>(_hid) * _in * kWordBytes);
    _hidden = env.alloc(static_cast<Addr>(_hid) * kWordBytes);

    std::vector<std::uint32_t> input(_in), weights(_hid * _in);
    for (unsigned i = 0; i < _in; ++i) {
        input[i] = seedValue(i, 23);
        env.writeInit(_input + static_cast<Addr>(i) * kWordBytes,
                      input[i]);
    }
    for (unsigned i = 0; i < _hid * _in; ++i) {
        weights[i] = seedValue(i, 29);
        env.writeInit(_weights + static_cast<Addr>(i) * kWordBytes,
                      weights[i]);
    }
    env.declareReadOnly(_input, static_cast<Addr>(_in) * kWordBytes);

    _expectHidden.assign(_hid, 0);
    for (unsigned h = 0; h < _hid; ++h) {
        std::uint32_t sum = 0;
        for (unsigned i = 0; i < _in; ++i)
            sum += input[i] * weights[h * _in + i];
        _expectHidden[h] = sum;
    }
    _expectWeights = weights;
    for (unsigned h = 0; h < _hid; ++h) {
        for (unsigned i = 0; i < _in; ++i)
            _expectWeights[h * _in + i] += _expectHidden[h];
    }
}

KernelInfo
Backprop::kernelInfo(unsigned) const
{
    return {_hid};
}

SimTask
Backprop::tbMain(TbContext &ctx)
{
    unsigned h = ctx.tbGlobal();
    Addr row = _weights + static_cast<Addr>(h) * _in * kWordBytes;
    if (ctx.kernel() == 0) {
        // Forward: hidden[h] = sum(input .* weights[h]).
        std::uint32_t sum = 0;
        for (unsigned i = 0; i < _in; ++i) {
            std::uint32_t x = co_await ctx.load(
                _input + static_cast<Addr>(i) * kWordBytes);
            std::uint32_t w = co_await ctx.load(
                row + static_cast<Addr>(i) * kWordBytes);
            sum += x * w;
        }
        co_await ctx.store(_hidden + static_cast<Addr>(h) *
                                         kWordBytes,
                           sum);
        co_return;
    }

    // Backward: weights[h] += hidden[h] (written by kernel 0).
    std::uint32_t delta = co_await ctx.load(
        _hidden + static_cast<Addr>(h) * kWordBytes);
    for (unsigned i = 0; i < _in; ++i) {
        Addr addr = row + static_cast<Addr>(i) * kWordBytes;
        std::uint32_t w = co_await ctx.load(addr);
        co_await ctx.store(addr, w + delta);
    }
}

std::vector<std::string>
Backprop::check(WorkloadEnv &env)
{
    auto failures = compareArray(env, "BP.hidden", _hidden,
                                 _expectHidden);
    auto wf = compareArray(env, "BP.weights", _weights,
                           _expectWeights);
    failures.insert(failures.end(), wf.begin(), wf.end());
    return failures;
}

// ---------------------------------------------------------------------
// LUD
// ---------------------------------------------------------------------

Lud::Lud(unsigned n, unsigned steps) : _n(n), _steps(steps)
{
    panic_if(_steps >= _n, "LUD needs steps < n");
}

void
Lud::init(WorkloadEnv &env)
{
    _matrix = env.alloc(static_cast<Addr>(_n) * _n * kWordBytes);
    std::vector<std::uint32_t> m(_n * _n);
    for (unsigned i = 0; i < _n * _n; ++i) {
        m[i] = seedValue(i, 31);
        env.writeInit(_matrix + static_cast<Addr>(i) * kWordBytes,
                      m[i]);
    }

    for (unsigned k = 0; k < _steps; ++k) {
        for (unsigned i = k + 1; i < _n; ++i) {
            for (unsigned j = k; j < _n; ++j)
                m[i * _n + j] += m[k * _n + j];
        }
    }
    _expect = m;
}

KernelInfo
Lud::kernelInfo(unsigned) const
{
    return {15};
}

SimTask
Lud::tbMain(TbContext &ctx)
{
    unsigned k = ctx.kernel();
    // Slice the trailing rows k+1 .. n-1 across the 15 TBs with a
    // per-step rotation (block-cyclic scheduling, as in Rodinia):
    // the same rows land on different CUs in consecutive steps.
    unsigned rows = _n - (k + 1);
    unsigned per = (rows + 14) / 15;
    unsigned slot = (ctx.tbGlobal() + k) % 15;
    unsigned lo = k + 1 + slot * per;
    unsigned hi = std::min(_n, lo + per);

    for (unsigned i = lo; i < hi; ++i) {
        for (unsigned j = k; j < _n; ++j) {
            std::uint32_t pivot = co_await ctx.load(
                _matrix +
                (static_cast<Addr>(k) * _n + j) * kWordBytes);
            Addr addr = _matrix +
                        (static_cast<Addr>(i) * _n + j) * kWordBytes;
            std::uint32_t v = co_await ctx.load(addr);
            co_await ctx.store(addr, v + pivot);
        }
    }
}

std::vector<std::string>
Lud::check(WorkloadEnv &env)
{
    return compareArray(env, "LUD", _matrix, _expect);
}

// ---------------------------------------------------------------------
// NW
// ---------------------------------------------------------------------

Nw::Nw(unsigned n, unsigned block)
    : _n(n), _block(block), _blocksPerSide(n / block)
{
    panic_if(_n % _block != 0, "NW matrix must tile evenly");
}

void
Nw::init(WorkloadEnv &env)
{
    _score = env.alloc(static_cast<Addr>(_n) * _n * kWordBytes);
    _ref = env.alloc(static_cast<Addr>(_n) * _n * kWordBytes);

    std::vector<std::uint32_t> ref(_n * _n);
    for (unsigned i = 0; i < _n * _n; ++i) {
        ref[i] = seedValue(i, 37);
        env.writeInit(_ref + static_cast<Addr>(i) * kWordBytes,
                      ref[i]);
    }
    env.declareReadOnly(_ref, static_cast<Addr>(_n) * _n * kWordBytes);

    std::vector<std::uint32_t> m(_n * _n, 0);
    for (unsigned i = 0; i < _n; ++i) {
        for (unsigned j = 0; j < _n; ++j) {
            std::uint32_t up = i > 0 ? m[(i - 1) * _n + j] : 0;
            std::uint32_t left = j > 0 ? m[i * _n + j - 1] : 0;
            m[i * _n + j] = std::max(up, left) + ref[i * _n + j];
        }
    }
    _expect = m;
}

unsigned
Nw::numKernels() const
{
    return 2 * _blocksPerSide - 1;
}

KernelInfo
Nw::kernelInfo(unsigned k) const
{
    unsigned len = std::min({k + 1, _blocksPerSide,
                             2 * _blocksPerSide - 1 - k});
    return {len};
}

SimTask
Nw::tbMain(TbContext &ctx)
{
    unsigned d = ctx.kernel();
    unsigned first_bi = d < _blocksPerSide
                            ? 0
                            : d - (_blocksPerSide - 1);
    unsigned bi = first_bi + ctx.tbGlobal();
    unsigned bj = d - bi;

    for (unsigned ii = 0; ii < _block; ++ii) {
        for (unsigned jj = 0; jj < _block; ++jj) {
            unsigned i = bi * _block + ii;
            unsigned j = bj * _block + jj;
            std::uint32_t up = 0, left = 0;
            if (i > 0) {
                up = co_await ctx.load(
                    _score +
                    (static_cast<Addr>(i - 1) * _n + j) * kWordBytes);
            }
            if (j > 0) {
                left = co_await ctx.load(
                    _score +
                    (static_cast<Addr>(i) * _n + j - 1) * kWordBytes);
            }
            std::uint32_t r = co_await ctx.load(
                _ref + (static_cast<Addr>(i) * _n + j) * kWordBytes);
            co_await ctx.store(_score + (static_cast<Addr>(i) * _n +
                                         j) * kWordBytes,
                               std::max(up, left) + r);
        }
    }
}

std::vector<std::string>
Nw::check(WorkloadEnv &env)
{
    return compareArray(env, "NW", _score, _expect);
}

// ---------------------------------------------------------------------
// SGEMM
// ---------------------------------------------------------------------

Sgemm::Sgemm(unsigned n, unsigned tile) : _n(n), _tile(tile)
{
    panic_if(_n % _tile != 0, "SGEMM matrix must tile evenly");
}

void
Sgemm::init(WorkloadEnv &env)
{
    Addr bytes = static_cast<Addr>(_n) * _n * kWordBytes;
    _a = env.alloc(bytes);
    _b = env.alloc(bytes);
    _c = env.alloc(bytes);

    std::vector<std::uint32_t> a(_n * _n), b(_n * _n);
    for (unsigned i = 0; i < _n * _n; ++i) {
        a[i] = seedValue(i, 41);
        b[i] = seedValue(i, 43);
        env.writeInit(_a + static_cast<Addr>(i) * kWordBytes, a[i]);
        env.writeInit(_b + static_cast<Addr>(i) * kWordBytes, b[i]);
    }
    env.declareReadOnly(_a, bytes);
    env.declareReadOnly(_b, bytes);

    _expect.assign(_n * _n, 0);
    for (unsigned i = 0; i < _n; ++i) {
        for (unsigned k = 0; k < _n; ++k) {
            std::uint32_t av = a[i * _n + k];
            for (unsigned j = 0; j < _n; ++j)
                _expect[i * _n + j] += av * b[k * _n + j];
        }
    }
}

KernelInfo
Sgemm::kernelInfo(unsigned) const
{
    unsigned tiles = _n / _tile;
    return {tiles * tiles};
}

SimTask
Sgemm::tbMain(TbContext &ctx)
{
    unsigned tiles = _n / _tile;
    unsigned bi = ctx.tbGlobal() / tiles;
    unsigned bj = ctx.tbGlobal() % tiles;

    std::vector<std::uint32_t> acc(_tile * _tile, 0);
    for (unsigned kt = 0; kt < tiles; ++kt) {
        // Stage both tiles through the scratchpad, as the CUDA
        // kernel does, then accumulate.
        std::vector<std::uint32_t> at(_tile * _tile), bt(_tile * _tile);
        for (unsigned ii = 0; ii < _tile; ++ii) {
            for (unsigned kk = 0; kk < _tile; ++kk) {
                unsigned i = bi * _tile + ii;
                unsigned k = kt * _tile + kk;
                at[ii * _tile + kk] = co_await ctx.load(
                    _a + (static_cast<Addr>(i) * _n + k) *
                             kWordBytes);
            }
        }
        for (unsigned kk = 0; kk < _tile; ++kk) {
            for (unsigned jj = 0; jj < _tile; ++jj) {
                unsigned k = kt * _tile + kk;
                unsigned j = bj * _tile + jj;
                bt[kk * _tile + jj] = co_await ctx.load(
                    _b + (static_cast<Addr>(k) * _n + j) *
                             kWordBytes);
            }
        }
        co_await ctx.scratch(2 * _tile * _tile);

        for (unsigned ii = 0; ii < _tile; ++ii) {
            for (unsigned kk = 0; kk < _tile; ++kk) {
                std::uint32_t av = at[ii * _tile + kk];
                for (unsigned jj = 0; jj < _tile; ++jj) {
                    acc[ii * _tile + jj] +=
                        av * bt[kk * _tile + jj];
                }
            }
        }
        // Compute latency of the tile-level multiply.
        co_await ctx.wait(_tile * _tile / 2);
        co_await ctx.scratch(2 * _tile * _tile);
    }

    for (unsigned ii = 0; ii < _tile; ++ii) {
        for (unsigned jj = 0; jj < _tile; ++jj) {
            unsigned i = bi * _tile + ii;
            unsigned j = bj * _tile + jj;
            co_await ctx.store(_c + (static_cast<Addr>(i) * _n + j) *
                                        kWordBytes,
                               acc[ii * _tile + jj]);
        }
    }
}

std::vector<std::string>
Sgemm::check(WorkloadEnv &env)
{
    return compareArray(env, "SGEMM", _c, _expect);
}

} // namespace nosync
