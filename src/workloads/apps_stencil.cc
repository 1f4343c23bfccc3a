/**
 * @file
 * Stencil-style applications: Pathfinder, Stencil, Hotspot, SRAD.
 */


#include "sim/logging.hh"
#include "workloads/apps.hh"

namespace nosync
{

namespace
{

/** Deterministic pseudo-random init value for element @p i. */
std::uint32_t
seedValue(std::uint32_t i, std::uint32_t salt)
{
    return ((i * 2654435761u) ^ (salt * 40503u)) & 0xff;
}

/** Row range handled by TB @p tb out of @p tbs for @p rows rows. */
std::pair<unsigned, unsigned>
rowSlice(unsigned tb, unsigned tbs, unsigned rows)
{
    unsigned per = (rows + tbs - 1) / tbs;
    unsigned lo = tb * per;
    unsigned hi = std::min(rows, lo + per);
    return {std::min(lo, rows), hi};
}

} // namespace

// ---------------------------------------------------------------------
// Pathfinder
// ---------------------------------------------------------------------

Pathfinder::Pathfinder(unsigned cols, unsigned rows)
    : _cols(cols), _rows(rows)
{
    panic_if(rows < 2, "pathfinder needs at least two rows");
}

void
Pathfinder::init(WorkloadEnv &env)
{
    _wall = env.alloc(static_cast<Addr>(_rows) * _cols * kWordBytes);
    _buf[0] = env.alloc(static_cast<Addr>(_cols) * kWordBytes);
    _buf[1] = env.alloc(static_cast<Addr>(_cols) * kWordBytes);
    for (unsigned r = 0; r < _rows; ++r) {
        for (unsigned c = 0; c < _cols; ++c) {
            env.writeInit(_wall +
                              (static_cast<Addr>(r) * _cols + c) *
                                  kWordBytes,
                          seedValue(r * _cols + c, 7));
        }
    }
    env.declareReadOnly(_wall,
                        static_cast<Addr>(_rows) * _cols * kWordBytes);

    // Host-side expected DP.
    std::vector<std::uint32_t> prev(_cols), cur(_cols);
    for (unsigned c = 0; c < _cols; ++c)
        prev[c] = seedValue(c, 7);
    for (unsigned r = 1; r < _rows; ++r) {
        for (unsigned c = 0; c < _cols; ++c) {
            std::uint32_t best = prev[c];
            if (c > 0)
                best = std::min(best, prev[c - 1]);
            if (c + 1 < _cols)
                best = std::min(best, prev[c + 1]);
            cur[c] = best + seedValue(r * _cols + c, 7);
        }
        prev = cur;
    }
    _expect = prev;
}

KernelInfo
Pathfinder::kernelInfo(unsigned) const
{
    return {16};
}

SimTask
Pathfinder::tbMain(TbContext &ctx)
{
    unsigned r = ctx.kernel();
    auto [lo, hi] = rowSlice(ctx.tbGlobal(), 16, _cols);
    if (r == 0) {
        // First kernel seeds the DP row from the wall.
        for (unsigned c = lo; c < hi; ++c) {
            std::uint32_t w = co_await ctx.load(
                _wall + static_cast<Addr>(c) * kWordBytes);
            co_await ctx.store(_buf[0] +
                                   static_cast<Addr>(c) * kWordBytes,
                               w);
        }
        co_return;
    }

    Addr prev = _buf[(r - 1) % 2];
    Addr cur = _buf[r % 2];
    for (unsigned c = lo; c < hi; ++c) {
        std::uint32_t best = co_await ctx.load(
            prev + static_cast<Addr>(c) * kWordBytes);
        if (c > 0) {
            best = std::min(best,
                            co_await ctx.load(
                                prev + static_cast<Addr>(c - 1) *
                                           kWordBytes));
        }
        if (c + 1 < _cols) {
            best = std::min(best,
                            co_await ctx.load(
                                prev + static_cast<Addr>(c + 1) *
                                           kWordBytes));
        }
        std::uint32_t w = co_await ctx.load(
            _wall + (static_cast<Addr>(r) * _cols + c) * kWordBytes);
        co_await ctx.store(cur + static_cast<Addr>(c) * kWordBytes,
                           best + w);
    }
}

std::vector<std::string>
Pathfinder::check(WorkloadEnv &env)
{
    return compareArray(env, "PF", _buf[(_rows - 1) % 2], _expect);
}

// ---------------------------------------------------------------------
// Stencil
// ---------------------------------------------------------------------

Stencil::Stencil(unsigned dim, unsigned iters)
    : _dim(dim), _iters(iters)
{
}

void
Stencil::init(WorkloadEnv &env)
{
    Addr bytes = static_cast<Addr>(_dim) * _dim * kWordBytes;
    _buf[0] = env.alloc(bytes);
    _buf[1] = env.alloc(bytes);

    std::vector<std::uint32_t> grid(_dim * _dim);
    for (unsigned i = 0; i < _dim * _dim; ++i) {
        grid[i] = seedValue(i, 11);
        env.writeInit(_buf[0] + static_cast<Addr>(i) * kWordBytes,
                      grid[i]);
    }

    std::vector<std::uint32_t> next(grid.size());
    for (unsigned it = 0; it < _iters; ++it) {
        for (unsigned y = 0; y < _dim; ++y) {
            for (unsigned x = 0; x < _dim; ++x) {
                auto at = [&](unsigned yy, unsigned xx) {
                    return grid[yy * _dim + xx];
                };
                std::uint32_t sum = at(y, x);
                sum += at(y > 0 ? y - 1 : y, x);
                sum += at(y + 1 < _dim ? y + 1 : y, x);
                sum += at(y, x > 0 ? x - 1 : x);
                sum += at(y, x + 1 < _dim ? x + 1 : x);
                next[y * _dim + x] = sum / 5;
            }
        }
        grid.swap(next);
    }
    _expect = grid;
}

KernelInfo
Stencil::kernelInfo(unsigned) const
{
    return {16};
}

SimTask
Stencil::tbMain(TbContext &ctx)
{
    unsigned it = ctx.kernel();
    Addr src = _buf[it % 2];
    Addr dst = _buf[(it + 1) % 2];
    auto [lo, hi] = rowSlice(ctx.tbGlobal(), 16, _dim);

    for (unsigned y = lo; y < hi; ++y) {
        for (unsigned x = 0; x < _dim; ++x) {
            auto addr = [&](unsigned yy, unsigned xx) {
                return src + (static_cast<Addr>(yy) * _dim + xx) *
                                 kWordBytes;
            };
            std::uint32_t sum = co_await ctx.load(addr(y, x));
            sum += co_await ctx.load(addr(y > 0 ? y - 1 : y, x));
            sum += co_await ctx.load(
                addr(y + 1 < _dim ? y + 1 : y, x));
            sum += co_await ctx.load(addr(y, x > 0 ? x - 1 : x));
            sum += co_await ctx.load(
                addr(y, x + 1 < _dim ? x + 1 : x));
            co_await ctx.store(dst + (static_cast<Addr>(y) * _dim +
                                      x) * kWordBytes,
                               sum / 5);
        }
    }
}

std::vector<std::string>
Stencil::check(WorkloadEnv &env)
{
    return compareArray(env, "ST", _buf[_iters % 2], _expect);
}

// ---------------------------------------------------------------------
// Hotspot
// ---------------------------------------------------------------------

Hotspot::Hotspot(unsigned dim, unsigned iters)
    : _dim(dim), _iters(iters)
{
}

void
Hotspot::init(WorkloadEnv &env)
{
    Addr bytes = static_cast<Addr>(_dim) * _dim * kWordBytes;
    _power = env.alloc(bytes);
    _buf[0] = env.alloc(bytes);
    _buf[1] = env.alloc(bytes);

    std::vector<std::uint32_t> temp(_dim * _dim), power(_dim * _dim);
    for (unsigned i = 0; i < _dim * _dim; ++i) {
        temp[i] = 300 + seedValue(i, 13);
        power[i] = seedValue(i, 17);
        env.writeInit(_buf[0] + static_cast<Addr>(i) * kWordBytes,
                      temp[i]);
        env.writeInit(_power + static_cast<Addr>(i) * kWordBytes,
                      power[i]);
    }
    env.declareReadOnly(_power, bytes);

    std::vector<std::uint32_t> next(temp.size());
    for (unsigned it = 0; it < _iters; ++it) {
        for (unsigned y = 0; y < _dim; ++y) {
            for (unsigned x = 0; x < _dim; ++x) {
                auto at = [&](unsigned yy, unsigned xx) {
                    return temp[yy * _dim + xx];
                };
                std::uint32_t self = at(y, x);
                std::uint32_t sum = at(y > 0 ? y - 1 : y, x) +
                                    at(y + 1 < _dim ? y + 1 : y, x) +
                                    at(y, x > 0 ? x - 1 : x) +
                                    at(y, x + 1 < _dim ? x + 1 : x);
                next[y * _dim + x] =
                    self + ((power[y * _dim + x] + sum - 4 * self) >>
                            3);
            }
        }
        temp.swap(next);
    }
    _expect = temp;
}

KernelInfo
Hotspot::kernelInfo(unsigned) const
{
    return {16};
}

SimTask
Hotspot::tbMain(TbContext &ctx)
{
    unsigned it = ctx.kernel();
    Addr src = _buf[it % 2];
    Addr dst = _buf[(it + 1) % 2];
    auto [lo, hi] = rowSlice(ctx.tbGlobal(), 16, _dim);

    for (unsigned y = lo; y < hi; ++y) {
        for (unsigned x = 0; x < _dim; ++x) {
            auto addr = [&](unsigned yy, unsigned xx) {
                return src + (static_cast<Addr>(yy) * _dim + xx) *
                                 kWordBytes;
            };
            std::uint32_t self = co_await ctx.load(addr(y, x));
            std::uint32_t sum =
                co_await ctx.load(addr(y > 0 ? y - 1 : y, x));
            sum += co_await ctx.load(
                addr(y + 1 < _dim ? y + 1 : y, x));
            sum += co_await ctx.load(addr(y, x > 0 ? x - 1 : x));
            sum += co_await ctx.load(
                addr(y, x + 1 < _dim ? x + 1 : x));
            std::uint32_t p = co_await ctx.load(
                _power +
                (static_cast<Addr>(y) * _dim + x) * kWordBytes);
            co_await ctx.store(dst + (static_cast<Addr>(y) * _dim +
                                      x) * kWordBytes,
                               self + ((p + sum - 4 * self) >> 3));
        }
    }
}

std::vector<std::string>
Hotspot::check(WorkloadEnv &env)
{
    return compareArray(env, "HS", _buf[_iters % 2], _expect);
}

// ---------------------------------------------------------------------
// SRAD
// ---------------------------------------------------------------------

Srad::Srad(unsigned dim, unsigned iters) : _dim(dim), _iters(iters) {}

void
Srad::init(WorkloadEnv &env)
{
    Addr bytes = static_cast<Addr>(_dim) * _dim * kWordBytes;
    _img = env.alloc(bytes);
    _coef = env.alloc(bytes);

    std::vector<std::uint32_t> img(_dim * _dim);
    for (unsigned i = 0; i < _dim * _dim; ++i) {
        img[i] = seedValue(i, 19) + 16;
        env.writeInit(_img + static_cast<Addr>(i) * kWordBytes,
                      img[i]);
    }

    std::vector<std::uint32_t> coef(img.size());
    for (unsigned it = 0; it < _iters; ++it) {
        for (unsigned y = 0; y < _dim; ++y) {
            for (unsigned x = 0; x < _dim; ++x) {
                auto at = [&](unsigned yy, unsigned xx) {
                    return img[yy * _dim + xx];
                };
                std::uint32_t grad =
                    at(y > 0 ? y - 1 : y, x) +
                    at(y, x > 0 ? x - 1 : x) - 2 * at(y, x);
                coef[y * _dim + x] = (grad * grad) & 0xffff;
            }
        }
        for (unsigned y = 0; y < _dim; ++y) {
            for (unsigned x = 0; x < _dim; ++x) {
                auto cat = [&](unsigned yy, unsigned xx) {
                    return coef[yy * _dim + xx];
                };
                img[y * _dim + x] +=
                    (cat(y, x) + cat(y + 1 < _dim ? y + 1 : y, x) +
                     cat(y, x + 1 < _dim ? x + 1 : x)) >>
                    4;
            }
        }
    }
    _expect = img;
}

KernelInfo
Srad::kernelInfo(unsigned) const
{
    return {16};
}

SimTask
Srad::tbMain(TbContext &ctx)
{
    bool coef_phase = (ctx.kernel() % 2) == 0;
    auto [lo, hi] = rowSlice(ctx.tbGlobal(), 16, _dim);

    for (unsigned y = lo; y < hi; ++y) {
        for (unsigned x = 0; x < _dim; ++x) {
            Addr idx = (static_cast<Addr>(y) * _dim + x) * kWordBytes;
            if (coef_phase) {
                auto addr = [&](unsigned yy, unsigned xx) {
                    return _img + (static_cast<Addr>(yy) * _dim +
                                   xx) * kWordBytes;
                };
                std::uint32_t self = co_await ctx.load(addr(y, x));
                std::uint32_t up =
                    co_await ctx.load(addr(y > 0 ? y - 1 : y, x));
                std::uint32_t left =
                    co_await ctx.load(addr(y, x > 0 ? x - 1 : x));
                std::uint32_t grad = up + left - 2 * self;
                co_await ctx.store(_coef + idx,
                                   (grad * grad) & 0xffff);
            } else {
                auto caddr = [&](unsigned yy, unsigned xx) {
                    return _coef + (static_cast<Addr>(yy) * _dim +
                                    xx) * kWordBytes;
                };
                std::uint32_t c = co_await ctx.load(caddr(y, x));
                c += co_await ctx.load(
                    caddr(y + 1 < _dim ? y + 1 : y, x));
                c += co_await ctx.load(
                    caddr(y, x + 1 < _dim ? x + 1 : x));
                std::uint32_t v = co_await ctx.load(_img + idx);
                co_await ctx.store(_img + idx, v + (c >> 4));
            }
        }
    }
}

std::vector<std::string>
Srad::check(WorkloadEnv &env)
{
    return compareArray(env, "SRAD", _img, _expect);
}

} // namespace nosync
