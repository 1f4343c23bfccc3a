/**
 * @file
 * Ablation: store-buffer size sweep.
 *
 * Section 6.2.1 attributes LavaMD's GPU* traffic blow-up to store
 * buffer overflow (lost coalescing), and Section 6.2.3 notes the same
 * effect for TB_LG/TBEX_LG at global releases. This harness sweeps
 * the buffer size to expose the crossover: DeNovo's ownership makes
 * it largely insensitive, GPU coherence degrades as the buffer
 * shrinks.
 */

#include "bench_util.hh"

using namespace nosync;
using namespace nosync::bench;

int
main(int argc, char **argv)
{
    WallTimer timer;
    Options opts = Options::parse(
        argc, argv, cellFlags({flag::raceCheck, flag::devices}));

    std::vector<CellSpec> cells;
    for (std::size_t entries : {32u, 64u, 128u, 256u, 512u}) {
        for (const auto &proto :
             {ProtocolConfig::gd(), ProtocolConfig::dd()}) {
            cells.push_back(opts.cellOf("LAVA", proto));
            cells.back().storeBuffer = entries;
        }
    }

    std::vector<double> drains(cells.size());
    std::vector<SweepCell> results = runCells(
        cells, opts,
        [](const CellSpec &cell) {
            return "sb" + std::to_string(cell.storeBuffer);
        },
        [&](std::size_t i, const System &system) {
            drains[i] = sumL1Stat(system, "sb_overflow_drains");
        });

    std::printf("=== Ablation: store buffer size (workload LAVA) "
                "===\n");
    std::printf("%-10s %-12s %-14s %-14s %-14s\n", "entries",
                "config", "cycles", "WB/WT flits", "overflow drains");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const RunResult &result = results[i].result;
        std::printf("%-10zu %-12s %-14llu %-14.0f %-14.0f\n",
                    cells[i].storeBuffer, result.config.c_str(),
                    static_cast<unsigned long long>(result.cycles),
                    result.traffic[static_cast<std::size_t>(
                        TrafficClass::WriteBack)],
                    drains[i]);
    }
    maybeWriteJson(opts, "ablation_store_buffer", results, timer);
    return 0;
}
