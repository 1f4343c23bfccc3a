/**
 * @file
 * Weak-scaling sweep: the five studied configurations on growing
 * meshes — 4x4 (15 CUs + CPU), 6x6 (35 CUs + CPU), 8x8 (63 CUs +
 * CPU), and 12x12 (143 CUs + CPU) — with one L2 bank per mesh node
 * so the registry scales with the machine. The 12x12 tier crosses
 * the old int8_t owner-id limit of 127 nodes; CacheLine now packs
 * owners as int16_t precisely so this sweep can keep growing.
 *
 * The paper's question at scale: do the scoped (H*) configurations'
 * advantages grow with the machine, or does DeNovo's word-granularity
 * registration keep pace without scopes? Each mesh size runs a
 * representative global-sync + local-sync workload mix under all five
 * configs; per-scale figures are normalized to GD at that scale, so
 * the tables answer the question scale by scale.
 *
 * Workloads size themselves from env.numCus(), so the same names run
 * proportionally more work on bigger meshes (weak scaling). With
 * `--json=PATH` the harness writes one BENCH record per scale —
 * stem.4x4.json, stem.6x6.json, stem.8x8.json — keeping cells from
 * different machines in different records for the perf gate.
 */

#include "bench_util.hh"

using namespace nosync;
using namespace nosync::bench;

namespace
{

struct ScalePoint
{
    unsigned dim;
    const char *label;
};

constexpr ScalePoint kScales[] = {
    {4, "4x4"},
    {6, "6x6"},
    {8, "8x8"},
    {12, "12x12"},
};

} // namespace

int
main(int argc, char **argv)
{
    Options opts = Options::parse(argc, argv);

    // A global-sync and a local-sync representative per sync flavor:
    // fine-grained atomic mutation (FAM), work sharing through a
    // concurrent stack (SS), and producer/consumer flags (SPM).
    const std::vector<std::string> workloads = {"FAM_G", "SPM_G",
                                                "FAM_L", "SS_L"};
    const std::vector<ProtocolConfig> configs =
        standardConfigs(opts);

    for (const auto &scale : kScales) {
        WallTimer timer;
        unsigned num_cus = scale.dim * scale.dim - 1;
        auto results =
            runMatrix(workloads, configs,
                      withFileLabel(opts, scale.label),
                      [&](SystemConfig &config) {
                          config.topology.mesh.width = scale.dim;
                          config.topology.mesh.height = scale.dim;
                          config.topology.cusPerDevice = num_cus;
                      });

        std::cout << "=== Weak scaling " << scale.label << " ("
                  << num_cus
                  << " CUs + CPU, one L2 bank per node): "
                     "normalized to GD ===\n\n";
        emitFigure(results, 0,
                   std::string("Scale-") + scale.label, opts);
        maybeWriteJson(opts, "scale_sweep", results, timer,
                       scale.label);
    }
    return 0;
}
