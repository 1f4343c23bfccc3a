#include "workloads/registry.hh"

#include <algorithm>
#include <array>

#include "sim/logging.hh"
#include "workloads/apps.hh"
#include "workloads/graph.hh"
#include "workloads/microbench.hh"
#include "workloads/uts.hh"

namespace nosync
{

namespace
{

/** Fewer iterations and threads below 100%; the defaults at 100. */
MicrobenchParams
scaledMicro(unsigned scale_percent)
{
    MicrobenchParams params;
    params.iterations =
        std::max(10u, params.iterations * scale_percent / 100);
    params.threads =
        std::max(8u, params.threads * scale_percent / 100);
    return params;
}

/** Fewer tree nodes below 100%; the paper's 16K at 100. */
UtsParams
scaledUts(unsigned scale_percent)
{
    UtsParams params;
    params.numNodes =
        std::max(512u, params.numNodes * scale_percent / 100);
    return params;
}

/** An app row: its paper-size arguments at 100%, reduced below. */
template <class App>
WorkloadFactory
app(std::array<unsigned, 2> paper, std::array<unsigned, 2> reduced)
{
    return [=](unsigned scale_percent) {
        const auto &args = scale_percent < 100 ? reduced : paper;
        return std::make_unique<App>(args[0], args[1]);
    };
}

/** A mutex row: its (kind, scope) pair with the scaled params. */
WorkloadFactory
mutex(MutexKind kind, Scope scope)
{
    return [=](unsigned scale_percent) {
        return std::make_unique<MutexBench>(kind, scope,
                                            scaledMicro(scale_percent));
    };
}

/** A microbenchmark built from its one flag and the scaled params. */
template <class Bench>
WorkloadFactory
micro(bool variant)
{
    return [=](unsigned scale_percent) {
        return std::make_unique<Bench>(variant,
                                       scaledMicro(scale_percent));
    };
}

/** A graph row: 64 vertices and 3 rounds below 100%. */
template <class Graph>
WorkloadFactory
graph(Traversal dir, GraphShape shape)
{
    return [=](unsigned scale_percent) {
        GraphParams params;
        if (scale_percent < 100) {
            params.nodes = 64;
            params.rounds = 3;
        }
        return std::make_unique<Graph>(dir, shape, params);
    };
}

} // namespace

const std::vector<WorkloadDesc> &
workloadRegistry()
{
    static const std::vector<WorkloadDesc> registry = {
        // Applications without intra-kernel synchronization.
        {"BP", "no-sync", "512-in x 128-hid layer",
         app<Backprop>({512, 128}, {128, 64})},
        {"PF", "no-sync", "10 x 100K grid",
         app<Pathfinder>({100000, 10}, {2048, 8})},
        {"LUD", "no-sync", "128x128 matrix, 32 steps",
         app<Lud>({128, 32}, {48, 12})},
        {"NW", "no-sync", "256x256 matrix, 16x16 blocks",
         app<Nw>({256, 16}, {96, 8})},
        {"SGEMM", "no-sync", "256x256, 16x16 tiles",
         app<Sgemm>({256, 16}, {96, 16})},
        {"ST", "no-sync", "512x512 grid, 4 iters",
         app<Stencil>({512, 4}, {64, 4})},
        {"HS", "no-sync", "512x512 grid, 2 iters",
         app<Hotspot>({512, 2}, {64, 2})},
        {"NN", "no-sync", "64K records", app<Nn>({65536, 30}, {8192, 30})},
        {"SRAD", "no-sync", "256x256 image, 2 iters",
         app<Srad>({256, 2}, {64, 2})},
        {"LAVA", "no-sync", "4x4x4 boxes, 20 particles",
         app<LavaMd>({4, 20}, {3, 16})},

        // Globally scoped fine-grained synchronization.
        {"FAM_G", "global-sync", "3 TB/CU, 100 iters, 10 Ld&St",
         mutex(MutexKind::FetchAdd, Scope::Global)},
        {"SLM_G", "global-sync", "3 TB/CU, 100 iters, 10 Ld&St",
         mutex(MutexKind::Sleep, Scope::Global)},
        {"SPM_G", "global-sync", "3 TB/CU, 100 iters, 10 Ld&St",
         mutex(MutexKind::Spin, Scope::Global)},
        {"SPMBO_G", "global-sync", "3 TB/CU, 100 iters, 10 Ld&St",
         mutex(MutexKind::SpinBackoff, Scope::Global)},

        // Device-scoped synchronization (multi-device machines): one
        // mutex per device, synced at device scope. On one device
        // these degenerate to the _G variants.
        {"FAM_D", "device-sync", "3 TB/CU, 100 iters, 10 Ld&St",
         mutex(MutexKind::FetchAdd, Scope::Device)},
        {"SPM_D", "device-sync", "3 TB/CU, 100 iters, 10 Ld&St",
         mutex(MutexKind::Spin, Scope::Device)},

        // Locally scoped / hybrid synchronization.
        {"FAM_L", "local-sync", "3 TB/CU, 100 iters, 10 Ld&St",
         mutex(MutexKind::FetchAdd, Scope::Local)},
        {"SLM_L", "local-sync", "3 TB/CU, 100 iters, 10 Ld&St",
         mutex(MutexKind::Sleep, Scope::Local)},
        {"SPM_L", "local-sync", "3 TB/CU, 100 iters, 10 Ld&St",
         mutex(MutexKind::Spin, Scope::Local)},
        {"SPMBO_L", "local-sync", "3 TB/CU, 100 iters, 10 Ld&St",
         mutex(MutexKind::SpinBackoff, Scope::Local)},
        {"SS_L", "local-sync", "1 writer + 2 readers/CU, 100 iters",
         micro<SemaphoreBench>(false)},
        {"SSBO_L", "local-sync", "1 writer + 2 readers/CU, 100 iters",
         micro<SemaphoreBench>(true)},
        {"TB_LG", "local-sync", "3 TB/CU, 100 iters, 10-word chunks",
         micro<TreeBarrierBench>(false)},
        {"TBEX_LG", "local-sync", "3 TB/CU, 100 iters, 10-word chunks",
         micro<TreeBarrierBench>(true)},
        {"UTS", "local-sync", "16K nodes",
         [](unsigned scale_percent) {
             return std::make_unique<Uts>(scaledUts(scale_percent));
         }},

        // Graph analytics: {BFS, PageRank, SSSP} x {push, pull} x
        // {power-law (_PL), 2-D mesh (_M)}. Pull variants declare
        // their double buffers streaming (exercised by DD+PR); push
        // variants scatter through globally scoped atomics.
        {"BFS_PUSH_PL", "graph", "160-vertex power-law, 5 levels",
         graph<Bfs>(Traversal::Push, GraphShape::PowerLaw)},
        {"BFS_PULL_PL", "graph", "160-vertex power-law, 5 levels",
         graph<Bfs>(Traversal::Pull, GraphShape::PowerLaw)},
        {"BFS_PUSH_M", "graph", "12x12 mesh, 5 levels",
         graph<Bfs>(Traversal::Push, GraphShape::Mesh)},
        {"BFS_PULL_M", "graph", "12x12 mesh, 5 levels",
         graph<Bfs>(Traversal::Pull, GraphShape::Mesh)},
        {"PR_PUSH_PL", "graph", "160-vertex power-law, 5 iters",
         graph<Pagerank>(Traversal::Push, GraphShape::PowerLaw)},
        {"PR_PULL_PL", "graph", "160-vertex power-law, 5 iters",
         graph<Pagerank>(Traversal::Pull, GraphShape::PowerLaw)},
        {"PR_PUSH_M", "graph", "12x12 mesh, 5 iters",
         graph<Pagerank>(Traversal::Push, GraphShape::Mesh)},
        {"PR_PULL_M", "graph", "12x12 mesh, 5 iters",
         graph<Pagerank>(Traversal::Pull, GraphShape::Mesh)},
        {"SSSP_PUSH_PL", "graph", "160-vertex power-law, 5 rounds",
         graph<Sssp>(Traversal::Push, GraphShape::PowerLaw)},
        {"SSSP_PULL_PL", "graph", "160-vertex power-law, 5 rounds",
         graph<Sssp>(Traversal::Pull, GraphShape::PowerLaw)},
        {"SSSP_PUSH_M", "graph", "12x12 mesh, 5 rounds",
         graph<Sssp>(Traversal::Push, GraphShape::Mesh)},
        {"SSSP_PULL_M", "graph", "12x12 mesh, 5 rounds",
         graph<Sssp>(Traversal::Pull, GraphShape::Mesh)},
    };
    return registry;
}

std::vector<const WorkloadDesc *>
workloadsInGroup(const std::string &group)
{
    std::vector<const WorkloadDesc *> out;
    for (const auto &desc : workloadRegistry()) {
        if (desc.group == group)
            out.push_back(&desc);
    }
    return out;
}

const WorkloadDesc *
findWorkload(const std::string &name)
{
    for (const auto &desc : workloadRegistry()) {
        if (desc.name == name)
            return &desc;
    }
    return nullptr;
}

std::unique_ptr<Workload>
makeScaled(const std::string &name, unsigned scale_percent)
{
    fatal_if(scale_percent < 1 || scale_percent > 100, "scale ",
             scale_percent, "% is outside [1, 100]");
    const WorkloadDesc *desc = findWorkload(name);
    fatal_if(!desc, "unknown workload ", name);
    return desc->make(scale_percent);
}

} // namespace nosync
