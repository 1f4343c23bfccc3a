/**
 * @file
 * Ablation: interconnect latency sensitivity.
 *
 * EXPERIMENTS.md (note N1) attributes part of the gap between our
 * global-sync speedups and the paper's to the cost of DeNovo's
 * distributed registration queue, which serializes lock handoffs
 * across mesh hops. This harness sweeps the per-hop link latency:
 * GPU coherence (sync at the L2) and DeNovo (ownership chains across
 * L1s) respond very differently, and the crossover illustrates when
 * each design wins.
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
    // Cells run at no more than half scale.
    opts.cell.scale = std::min(opts.cell.scale, 50u);

    std::vector<CellSpec> cells;
    for (const char *name : {"SPM_G", "FAM_G"}) {
        for (Cycles hop : {1u, 3u, 6u, 12u}) {
            for (const auto &proto :
                 {ProtocolConfig::gd(), ProtocolConfig::dd()}) {
                cells.push_back(opts.cellOf(name, proto));
                cells.back().hop = hop;
            }
        }
    }

    std::vector<SweepCell> results =
        runCells(cells, opts, [](const CellSpec &cell) {
            return "hop" + std::to_string(cell.hop);
        });

    std::printf("=== Ablation: mesh hop latency (SPM_G and FAM_G) "
                "===\n");
    std::printf("%-8s %-10s %-8s %-12s %-14s\n", "bench", "hop(cyc)",
                "config", "cycles", "atomic flits");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const RunResult &result = results[i].result;
        std::printf("%-8s %-10llu %-8s %-12llu %-14.0f\n",
                    cells[i].workload.c_str(),
                    static_cast<unsigned long long>(cells[i].hop),
                    result.config.c_str(),
                    static_cast<unsigned long long>(result.cycles),
                    result.traffic[static_cast<std::size_t>(
                        TrafficClass::Atomic)]);
    }
    maybeWriteJson(opts, "ablation_noc_latency", results, timer);
    std::printf("\nReading the table: GD's spin herd pays the herd's "
                "round trips to one L2 bank,\nwhile DD's handoffs "
                "walk owner-to-owner; higher hop latency stretches "
                "DD's\nregistration chains faster than GD's bank "
                "queue, and vice versa.\n");
    return 0;
}
