/**
 * @file
 * Graph-analytics workloads: BFS, PageRank, SSSP with push/pull
 * variants over synthetic power-law and 2-D mesh graphs.
 */

#include "workloads/graph.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "sim/logging.hh"

namespace nosync
{

namespace
{

constexpr std::uint32_t kBfsInf = 0xffffffffu;
constexpr std::uint32_t kSsspInf = 0x3fffffffu;

/** Deterministic hash for edge generation. */
std::uint32_t
mix(std::uint32_t a, std::uint32_t b)
{
    std::uint32_t h = a * 2654435761u + b * 40503u + 0x9e3779b9u;
    h ^= h >> 15;
    h *= 0x85ebca6bu;
    h ^= h >> 13;
    return h;
}

/** Fixed-point PageRank update (values scaled by 256). */
std::uint32_t
rankOf(std::uint32_t sum)
{
    return 38u + ((218u * sum) >> 8);
}

} // namespace

GraphCsr
buildGraph(GraphShape shape, unsigned nodes)
{
    GraphCsr csr;
    std::vector<std::set<unsigned>> adj;
    if (shape == GraphShape::Mesh) {
        unsigned side = std::max(
            2u, static_cast<unsigned>(std::sqrt(double(nodes))));
        csr.nodes = side * side;
        adj.resize(csr.nodes);
        for (unsigned y = 0; y < side; ++y) {
            for (unsigned x = 0; x < side; ++x) {
                unsigned v = y * side + x;
                if (x + 1 < side) {
                    adj[v].insert(v + 1);
                    adj[v + 1].insert(v);
                }
                if (y + 1 < side) {
                    adj[v].insert(v + side);
                    adj[v + side].insert(v);
                }
            }
        }
    } else {
        // Hub-heavy undirected graph: a backbone edge to i/2 keeps
        // the graph connected, and every vertex throws a few hashed
        // edges into the low-index quarter, so low-index vertices
        // accumulate power-law-style degrees.
        csr.nodes = std::max(4u, nodes);
        adj.resize(csr.nodes);
        unsigned hubs = std::max(1u, csr.nodes / 4);
        for (unsigned i = 1; i < csr.nodes; ++i) {
            adj[i].insert(i / 2);
            adj[i / 2].insert(i);
            for (unsigned k = 0; k < 3; ++k) {
                unsigned j = mix(i, k) % hubs;
                if (j != i) {
                    adj[i].insert(j);
                    adj[j].insert(i);
                }
            }
        }
    }
    csr.rowBase.resize(csr.nodes + 1, 0);
    for (unsigned v = 0; v < csr.nodes; ++v) {
        csr.rowBase[v + 1] =
            csr.rowBase[v] + static_cast<unsigned>(adj[v].size());
        for (unsigned u : adj[v])
            csr.cols.push_back(u);
    }
    return csr;
}

std::uint32_t
edgeWeight(unsigned u, unsigned v)
{
    unsigned lo = std::min(u, v);
    unsigned hi = std::max(u, v);
    return 1u + ((lo * 31u + hi * 17u) % 7u);
}

// ---------------------------------------------------------------------
// Common machinery
// ---------------------------------------------------------------------

GraphWorkload::GraphWorkload(const char *kernel_name, Traversal dir,
                             GraphShape shape,
                             const GraphParams &params)
    : _dir(dir), _shape(shape), _params(params),
      _csr(buildGraph(shape, params.nodes))
{
    _params.nodes = _csr.nodes; // mesh rounds to a square
    panic_if(_params.tbs == 0, "graph workload needs >= 1 TB");
    panic_if(_params.rounds == 0, "graph workload needs >= 1 round");
    _name = std::string(kernel_name) +
            (dir == Traversal::Push ? "_PUSH" : "_PULL") +
            (shape == GraphShape::PowerLaw ? "_PL" : "_M");
}

void
GraphWorkload::initGraph(WorkloadEnv &env)
{
    Addr row_bytes =
        static_cast<Addr>(_csr.rowBase.size()) * kWordBytes;
    Addr col_bytes = static_cast<Addr>(_csr.cols.size()) * kWordBytes;
    _rowBase = env.alloc(row_bytes);
    _cols = env.alloc(col_bytes);
    for (std::size_t i = 0; i < _csr.rowBase.size(); ++i) {
        env.writeInit(_rowBase + static_cast<Addr>(i) * kWordBytes,
                      _csr.rowBase[i]);
    }
    for (std::size_t e = 0; e < _csr.cols.size(); ++e) {
        env.writeInit(_cols + static_cast<Addr>(e) * kWordBytes,
                      _csr.cols[e]);
    }
    env.declareReadOnly(_rowBase, row_bytes);
    env.declareReadOnly(_cols, col_bytes);
}

std::pair<unsigned, unsigned>
GraphWorkload::slice(unsigned tb) const
{
    unsigned per = (_params.nodes + _params.tbs - 1) / _params.tbs;
    unsigned lo = std::min(tb * per, _params.nodes);
    unsigned hi = std::min(lo + per, _params.nodes);
    return {lo, hi};
}

Addr
GraphWorkload::rowBaseAddr(unsigned v) const
{
    return _rowBase + static_cast<Addr>(v) * kWordBytes;
}

Addr
GraphWorkload::colAddr(unsigned e) const
{
    return _cols + static_cast<Addr>(e) * kWordBytes;
}

// ---------------------------------------------------------------------
// BFS
// ---------------------------------------------------------------------

Bfs::Bfs(Traversal dir, GraphShape shape, GraphParams params)
    : GraphWorkload("BFS", dir, shape, params)
{
}

void
Bfs::init(WorkloadEnv &env)
{
    initGraph(env);
    unsigned n = _params.nodes;
    Addr bytes = static_cast<Addr>(n) * kWordBytes;
    _dist = env.alloc(bytes);
    _front[0] = env.alloc(bytes);
    _front[1] = env.alloc(bytes);
    for (unsigned v = 0; v < n; ++v) {
        env.writeInit(_dist + static_cast<Addr>(v) * kWordBytes,
                      v == 0 ? 0 : kBfsInf);
        env.writeInit(_front[0] + static_cast<Addr>(v) * kWordBytes,
                      v == 0 ? 1 : 0);
        env.writeInit(_front[1] + static_cast<Addr>(v) * kWordBytes,
                      0);
    }
    if (_dir == Traversal::Pull) {
        // Frontier bitmaps are written once per level by their owner
        // and read by every neighbor next level: the textbook
        // streaming region. (Push writes them with atomics, which
        // must register, so only pull declares them.)
        env.declareStreaming(_front[0], bytes);
        env.declareStreaming(_front[1], bytes);
    }

    // Host-side level-synchronous BFS for exactly `rounds` levels.
    _expect.assign(n, kBfsInf);
    _expect[0] = 0;
    std::vector<std::uint8_t> cur(n, 0), nxt(n, 0);
    cur[0] = 1;
    for (unsigned r = 0; r < _params.rounds; ++r) {
        std::fill(nxt.begin(), nxt.end(), 0);
        for (unsigned v = 0; v < n; ++v) {
            if (_expect[v] != kBfsInf)
                continue;
            for (unsigned e = _csr.rowBase[v];
                 e < _csr.rowBase[v + 1]; ++e) {
                if (cur[_csr.cols[e]]) {
                    _expect[v] = r + 1;
                    nxt[v] = 1;
                    break;
                }
            }
        }
        cur.swap(nxt);
    }
}

SimTask
Bfs::tbMain(TbContext &ctx)
{
    return _dir == Traversal::Pull ? pullMain(ctx) : pushMain(ctx);
}

SimTask
Bfs::pullMain(TbContext &ctx)
{
    unsigned k = ctx.kernel();
    Addr cur = _front[k % 2];
    Addr nxt = _front[(k + 1) % 2];
    auto [lo, hi] = slice(ctx.tbGlobal());
    for (unsigned v = lo; v < hi; ++v) {
        Addr voff = static_cast<Addr>(v) * kWordBytes;
        std::uint32_t d = co_await ctx.load(_dist + voff);
        std::uint32_t found = 0;
        if (d == kBfsInf) {
            std::uint32_t e0 = co_await ctx.load(rowBaseAddr(v));
            std::uint32_t e1 = co_await ctx.load(rowBaseAddr(v + 1));
            for (std::uint32_t e = e0; e < e1; ++e) {
                std::uint32_t u = co_await ctx.load(colAddr(e));
                std::uint32_t f = co_await ctx.load(
                    cur + static_cast<Addr>(u) * kWordBytes);
                if (f != 0) {
                    found = 1;
                    co_await ctx.store(_dist + voff, k + 1);
                    break;
                }
            }
        }
        co_await ctx.store(nxt + voff, found);
    }
}

SimTask
Bfs::pushMain(TbContext &ctx)
{
    unsigned k = ctx.kernel();
    Addr cur = _front[k % 2];
    Addr nxt = _front[(k + 1) % 2];
    auto [lo, hi] = slice(ctx.tbGlobal());
    for (unsigned u = lo; u < hi; ++u) {
        Addr uoff = static_cast<Addr>(u) * kWordBytes;
        std::uint32_t f = co_await ctx.load(cur + uoff);
        if (f == 0)
            continue;
        // Owner-only reset so the bitmap is clean when it becomes
        // the scatter target again two levels from now.
        co_await ctx.store(cur + uoff, 0);
        std::uint32_t e0 = co_await ctx.load(rowBaseAddr(u));
        std::uint32_t e1 = co_await ctx.load(rowBaseAddr(u + 1));
        for (std::uint32_t e = e0; e < e1; ++e) {
            std::uint32_t v = co_await ctx.load(colAddr(e));
            Addr voff = static_cast<Addr>(v) * kWordBytes;
            std::uint32_t old = co_await ctx.atomic(ctx.compareSwap(
                _dist + voff, kBfsInf, k + 1, Scope::Global));
            if (old == kBfsInf) {
                co_await ctx.atomic(ctx.atomicStore(nxt + voff, 1,
                                                    Scope::Global));
            }
        }
    }
}

std::vector<std::string>
Bfs::check(WorkloadEnv &env)
{
    return compareArray(env, name(), _dist, _expect);
}

// ---------------------------------------------------------------------
// PageRank
// ---------------------------------------------------------------------

Pagerank::Pagerank(Traversal dir, GraphShape shape, GraphParams params)
    : GraphWorkload("PR", dir, shape, params)
{
}

void
Pagerank::init(WorkloadEnv &env)
{
    initGraph(env);
    unsigned n = _params.nodes;
    Addr bytes = static_cast<Addr>(n) * kWordBytes;
    _rank = env.alloc(bytes);
    _contrib[0] = env.alloc(bytes);
    for (unsigned v = 0; v < n; ++v) {
        env.writeInit(_rank + static_cast<Addr>(v) * kWordBytes, 256);
        env.writeInit(_contrib[0] + static_cast<Addr>(v) * kWordBytes,
                      256u / _csr.degree(v));
    }
    if (_dir == Traversal::Pull) {
        _contrib[1] = env.alloc(bytes);
        for (unsigned v = 0; v < n; ++v) {
            env.writeInit(_contrib[1] +
                              static_cast<Addr>(v) * kWordBytes,
                          0);
        }
        // Contributions are produced once per iteration and gathered
        // by every neighbor next iteration: streaming.
        env.declareStreaming(_contrib[0], bytes);
        env.declareStreaming(_contrib[1], bytes);
    } else {
        _accum = env.alloc(bytes);
        for (unsigned v = 0; v < n; ++v) {
            env.writeInit(_accum + static_cast<Addr>(v) * kWordBytes,
                          0);
        }
    }

    // Host-side fixed-point iteration (u32 wrap-around arithmetic is
    // order-independent, so push's fetch-adds match the gather sum).
    std::vector<std::uint32_t> contrib(n), next_contrib(n);
    _expect.assign(n, 256);
    for (unsigned v = 0; v < n; ++v)
        contrib[v] = 256u / _csr.degree(v);
    for (unsigned r = 0; r < _params.rounds; ++r) {
        for (unsigned v = 0; v < n; ++v) {
            std::uint32_t sum = 0;
            for (unsigned e = _csr.rowBase[v];
                 e < _csr.rowBase[v + 1]; ++e) {
                sum += contrib[_csr.cols[e]];
            }
            _expect[v] = rankOf(sum);
            next_contrib[v] = _expect[v] / _csr.degree(v);
        }
        contrib.swap(next_contrib);
    }
}

SimTask
Pagerank::tbMain(TbContext &ctx)
{
    return _dir == Traversal::Pull ? pullMain(ctx) : pushMain(ctx);
}

SimTask
Pagerank::pullMain(TbContext &ctx)
{
    unsigned k = ctx.kernel();
    Addr cur = _contrib[k % 2];
    Addr nxt = _contrib[(k + 1) % 2];
    auto [lo, hi] = slice(ctx.tbGlobal());
    for (unsigned v = lo; v < hi; ++v) {
        Addr voff = static_cast<Addr>(v) * kWordBytes;
        std::uint32_t e0 = co_await ctx.load(rowBaseAddr(v));
        std::uint32_t e1 = co_await ctx.load(rowBaseAddr(v + 1));
        std::uint32_t sum = 0;
        for (std::uint32_t e = e0; e < e1; ++e) {
            std::uint32_t u = co_await ctx.load(colAddr(e));
            sum += co_await ctx.load(
                cur + static_cast<Addr>(u) * kWordBytes);
        }
        std::uint32_t r = rankOf(sum);
        co_await ctx.store(_rank + voff, r);
        co_await ctx.store(nxt + voff, r / (e1 - e0));
    }
}

SimTask
Pagerank::pushMain(TbContext &ctx)
{
    unsigned k = ctx.kernel();
    auto [lo, hi] = slice(ctx.tbGlobal());
    if (k % 2 == 0) {
        // Scatter: add this vertex's contribution to each neighbor.
        for (unsigned u = lo; u < hi; ++u) {
            std::uint32_t c = co_await ctx.load(
                _contrib[0] + static_cast<Addr>(u) * kWordBytes);
            std::uint32_t e0 = co_await ctx.load(rowBaseAddr(u));
            std::uint32_t e1 = co_await ctx.load(rowBaseAddr(u + 1));
            for (std::uint32_t e = e0; e < e1; ++e) {
                std::uint32_t v = co_await ctx.load(colAddr(e));
                co_await ctx.atomic(ctx.fetchAdd(
                    _accum + static_cast<Addr>(v) * kWordBytes, c,
                    Scope::Global));
            }
        }
    } else {
        // Apply: fold the accumulated sum, emit the next
        // contribution, and reset the accumulator for the next
        // scatter (owner-only plain accesses; the scatter's atomics
        // are on the other side of a kernel boundary).
        for (unsigned v = lo; v < hi; ++v) {
            Addr voff = static_cast<Addr>(v) * kWordBytes;
            std::uint32_t sum = co_await ctx.load(_accum + voff);
            std::uint32_t e0 = co_await ctx.load(rowBaseAddr(v));
            std::uint32_t e1 = co_await ctx.load(rowBaseAddr(v + 1));
            std::uint32_t r = rankOf(sum);
            co_await ctx.store(_rank + voff, r);
            co_await ctx.store(_contrib[0] + voff, r / (e1 - e0));
            co_await ctx.store(_accum + voff, 0);
        }
    }
}

std::vector<std::string>
Pagerank::check(WorkloadEnv &env)
{
    return compareArray(env, name(), _rank, _expect);
}

// ---------------------------------------------------------------------
// SSSP
// ---------------------------------------------------------------------

Sssp::Sssp(Traversal dir, GraphShape shape, GraphParams params)
    : GraphWorkload("SSSP", dir, shape, params)
{
}

void
Sssp::init(WorkloadEnv &env)
{
    initGraph(env);
    unsigned n = _params.nodes;
    Addr bytes = static_cast<Addr>(n) * kWordBytes;
    _dist[0] = env.alloc(bytes);
    _dist[1] = env.alloc(bytes);
    for (unsigned v = 0; v < n; ++v) {
        std::uint32_t d = v == 0 ? 0 : kSsspInf;
        env.writeInit(_dist[0] + static_cast<Addr>(v) * kWordBytes,
                      d);
        env.writeInit(_dist[1] + static_cast<Addr>(v) * kWordBytes,
                      d);
    }
    if (_dir == Traversal::Pull) {
        // Distances double-buffer round to round: each buffer is
        // written once per round and gathered by every neighbor the
        // round after. (Push CAS-relaxes them, so only pull streams.)
        env.declareStreaming(_dist[0], bytes);
        env.declareStreaming(_dist[1], bytes);
    }

    // Host-side synchronous Bellman-Ford for `rounds` rounds.
    std::vector<std::uint32_t> cur(n), nxt(n);
    for (unsigned v = 0; v < n; ++v)
        cur[v] = v == 0 ? 0 : kSsspInf;
    for (unsigned r = 0; r < _params.rounds; ++r) {
        for (unsigned v = 0; v < n; ++v) {
            std::uint32_t best = cur[v];
            for (unsigned e = _csr.rowBase[v];
                 e < _csr.rowBase[v + 1]; ++e) {
                unsigned u = _csr.cols[e];
                if (cur[u] < kSsspInf) {
                    best = std::min(best,
                                    cur[u] + edgeWeight(u, v));
                }
            }
            nxt[v] = best;
        }
        cur.swap(nxt);
    }
    _expect = cur;
}

SimTask
Sssp::tbMain(TbContext &ctx)
{
    return _dir == Traversal::Pull ? pullMain(ctx) : pushMain(ctx);
}

SimTask
Sssp::pullMain(TbContext &ctx)
{
    unsigned k = ctx.kernel();
    Addr cur = _dist[k % 2];
    Addr nxt = _dist[(k + 1) % 2];
    auto [lo, hi] = slice(ctx.tbGlobal());
    for (unsigned v = lo; v < hi; ++v) {
        Addr voff = static_cast<Addr>(v) * kWordBytes;
        std::uint32_t best = co_await ctx.load(cur + voff);
        std::uint32_t e0 = co_await ctx.load(rowBaseAddr(v));
        std::uint32_t e1 = co_await ctx.load(rowBaseAddr(v + 1));
        for (std::uint32_t e = e0; e < e1; ++e) {
            std::uint32_t u = co_await ctx.load(colAddr(e));
            std::uint32_t du = co_await ctx.load(
                cur + static_cast<Addr>(u) * kWordBytes);
            if (du < kSsspInf)
                best = std::min(best, du + edgeWeight(u, v));
        }
        co_await ctx.store(nxt + voff, best);
    }
}

SimTask
Sssp::pushMain(TbContext &ctx)
{
    unsigned k = ctx.kernel();
    unsigned round = k / 2;
    Addr cur = _dist[round % 2];
    Addr nxt = _dist[(round + 1) % 2];
    auto [lo, hi] = slice(ctx.tbGlobal());
    if (k % 2 == 0) {
        // Copy kernel: seed the relax target with the current
        // distances (owner-only plain stores).
        for (unsigned v = lo; v < hi; ++v) {
            Addr voff = static_cast<Addr>(v) * kWordBytes;
            std::uint32_t d = co_await ctx.load(cur + voff);
            co_await ctx.store(nxt + voff, d);
        }
    } else {
        // Relax kernel: CAS-min each out-edge. Min is commutative,
        // so the result is schedule-independent.
        for (unsigned u = lo; u < hi; ++u) {
            std::uint32_t du = co_await ctx.load(
                cur + static_cast<Addr>(u) * kWordBytes);
            if (du >= kSsspInf)
                continue;
            std::uint32_t e0 = co_await ctx.load(rowBaseAddr(u));
            std::uint32_t e1 = co_await ctx.load(rowBaseAddr(u + 1));
            for (std::uint32_t e = e0; e < e1; ++e) {
                std::uint32_t v = co_await ctx.load(colAddr(e));
                Addr voff = static_cast<Addr>(v) * kWordBytes;
                std::uint32_t nd = du + edgeWeight(u, v);
                std::uint32_t seen = co_await ctx.atomic(
                    ctx.atomicLoad(nxt + voff, Scope::Global));
                while (nd < seen) {
                    std::uint32_t old = co_await ctx.atomic(
                        ctx.compareSwap(nxt + voff, seen, nd,
                                        Scope::Global));
                    if (old == seen)
                        break;
                    seen = old;
                }
            }
        }
    }
}

std::vector<std::string>
Sssp::check(WorkloadEnv &env)
{
    return compareArray(env, name(),
                        _dist[_params.rounds % 2], _expect);
}

} // namespace nosync
