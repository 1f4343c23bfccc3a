/**
 * @file
 * The figure matrices, the one place a figure's matrix is defined:
 * one row per figure-style sweep (workloads x protocol columns x
 * machines), and the driver that runs a row and prints its figures.
 * Each figure harness is figures.cc built for one row. headline runs
 * the Fig. 2-4 rows and gates the paper's reproduced directions, which
 * are rows over them too.
 */

#ifndef BENCH_MATRICES_HH
#define BENCH_MATRICES_HH

#include <cstdio>
#include <map>

#include "bench_util.hh"

namespace nosync::bench
{

/** One machine a matrix runs on: its cell fields, as values. */
struct Machine
{
    /** Tags its JSON record and trace/race files ("" = no tag). */
    std::string label;
    /** Heading printed above the figure, inside "=== ... ===". */
    std::string title;
    /** Figure-part prefix: "Fig2" prints "Fig2a: execution time". */
    std::string figure;
    /** Mesh side and device count; 0 keeps the options' cell's. */
    unsigned mesh = 0, devices = 0;
    /** Trace or race-check every cell, whatever the flags say. */
    bool trace = false, raceCheck = false;

    /** The options' cell @p base on this machine. */
    CellSpec
    cell(CellSpec base) const
    {
        base.mesh = mesh ? mesh : base.mesh;
        base.devices = devices ? devices : base.devices;
        base.trace |= trace;
        base.raceCheck |= raceCheck;
        return base;
    }
};

using Columns = std::function<std::vector<ProtocolConfig>(const Options &)>;
/**
 * Lines printed after a machine's figure. A nonzero return is the
 * harness's exit code, and no JSON record is written.
 */
using AfterFigure = std::function<int(const std::vector<WorkloadResults> &)>;

/** One figure-style sweep: its matrix, machines and extra output. */
struct MatrixSpec
{
    /** Binary name, and the harness of its JSON records. */
    std::string harness;
    std::vector<std::string> workloads;
    Columns columns;
    /** Column every figure normalizes to. */
    std::size_t baseline = 0;
    std::vector<Machine> machines;
    /**
     * The harness's flag table: by default the cell flags plus
     * --race-check and --devices, which its machines then keep.
     */
    std::vector<FlagSpec> flags =
        cellFlags({flag::raceCheck, flag::devices});
    AfterFigure after = {};
};

/** The benchmark names of a registry group, in registry order. */
inline std::vector<std::string>
groupNames(const std::string &group)
{
    std::vector<std::string> names;
    for (const auto *desc : workloadsInGroup(group))
        names.push_back(desc->name);
    return names;
}

/** The index of column @p config in @p results; throws if absent. */
inline std::size_t
columnOf(const std::vector<WorkloadResults> &results,
         const std::string &config)
{
    const std::vector<RunResult> &runs = results.front().runs;
    std::size_t c = 0;
    while (runs.at(c).config != config)
        ++c;
    return c;
}

/** averageNormalized with the columns given by name. */
inline double
averageOf(const std::vector<WorkloadResults> &results, int metric,
          const std::string &config, const std::string &baseline)
{
    return averageNormalized(results, metric, columnOf(results, config),
                             columnOf(results, baseline));
}

/** A single-machine row's machine. */
inline std::vector<Machine>
defaultMachine(const std::string &title, const std::string &figure)
{
    return {Machine{"", title, figure}};
}

/** Fixed columns, whatever the options. */
inline Columns
fixedColumns(std::vector<ProtocolConfig> columns)
{
    return [columns](const Options &) { return columns; };
}

/** Square meshes for weak scaling, one L2 bank per node. */
inline std::vector<Machine>
meshTiers()
{
    std::vector<Machine> machines;
    for (unsigned dim : {4u, 6u, 8u, 12u}) {
        std::string label = std::to_string(dim) + "x" + std::to_string(dim);
        machines.push_back(Machine{
            label,
            "Weak scaling " + label + " (" + std::to_string(dim * dim - 1) +
                " CUs + CPU, one L2 bank per node): normalized to GD",
            "Scale-" + label, dim});
    }
    return machines;
}

/**
 * 2- and 4-device machines. Tracing is on for the BENCH record's
 * per-scope sync-latency blocks; trace files only under --trace.
 */
inline std::vector<Machine>
deviceTiers()
{
    std::vector<Machine> machines;
    for (unsigned devices : {2u, 4u}) {
        std::string count = std::to_string(devices);
        machines.push_back(Machine{
            count + "dev",
            "Multi-device " + count + "x(4x4 mesh, 15 CUs + gateway) "
                "over the inter-device link: normalized to GD",
            count + "-device", 0, devices, true});
    }
    return machines;
}

/** Fig. 3's extra lines: D*'s average gain over G*. */
inline int
printFig3Averages(const std::vector<WorkloadResults> &results)
{
    auto lower = [&](int metric) {
        return (1.0 - averageNormalized(results, metric, 1, 0)) * 100.0;
    };
    std::printf("D* vs G* average: %.0f%% lower execution time, %.0f%% "
                "lower energy, %.0f%% lower traffic\n",
                lower(0), lower(1), lower(2));
    std::printf("(paper: 28%% lower execution time, 51%% lower energy, "
                "81%% lower traffic)\n");
    return 0;
}

/** Fig. 4's extra lines: the Section 6 column comparisons. */
inline int
printFig4Comparisons(const std::vector<WorkloadResults> &results)
{
    struct Row
    {
        const char *label, *config, *baseline, *paper;
    };
    for (const Row &row :
         {Row{"GH vs GD:", "GH", "GD", "46%, 42%"},
          Row{"GH vs DD:", "GH", "DD", "6%, 4%"},
          Row{"GH vs DD+RO:", "GH", "DD+RO", "~0%, ~0%"},
          Row{"DH vs GH:", "DH", "GH", "DH best overall"}}) {
        auto lower = [&](int metric) {
            return (1.0 - averageOf(results, metric, row.config,
                                    row.baseline)) *
                   100.0;
        };
        std::printf("%-13s%.0f%% lower execution time, %.0f%% lower "
                    "energy (paper: %s)\n",
                    row.label, lower(0), lower(1), row.paper);
    }
    return 0;
}

/**
 * graph_sweep's win check: DD+PR must beat both DD and GD in cycles
 * on at least one pull (frontier-heavy) cell.
 */
inline int
checkGraphWins(const std::vector<WorkloadResults> &results)
{
    unsigned wins = 0;
    for (const auto &wr : results) {
        if (wr.workload.find("_PULL") == std::string::npos)
            continue;
        Tick ddpr = wr.runs.back().cycles;
        if (ddpr < wr.runs[2].cycles && ddpr < wr.runs[0].cycles)
            ++wins;
    }
    std::cout << "DD+PR beats both DD and GD on " << wins
              << " pull cells\n";
    if (wins != 0)
        return 0;
    std::cerr << "GRAPH SWEEP FAILURE: DD+PR beat neither DD nor GD on "
                 "any pull cell\n";
    return 1;
}

/** race_sweep's extra line: what the detector checked. */
inline int
printRaceTotals(const std::vector<WorkloadResults> &results)
{
    std::size_t accesses = 0, edges = 0;
    for (const auto &wr : results)
        for (const auto &run : wr.runs) {
            accesses += run.races.dataAccesses;
            edges += run.races.hbEdges;
        }
    std::printf("checked %zu data accesses across %zu HB edges; all "
                "cells race-free\n",
                accesses, edges);
    return 0;
}

/** The figure matrices, one row per harness. */
inline const std::vector<MatrixSpec> &
matrices()
{
    using PC = ProtocolConfig;
    static const std::vector<MatrixSpec> table = {
        // HRF does not affect codes without local synchronization, so
        // as in the paper one bar is GD=GH and one DD=DH.
        {.harness = "fig2_apps",
         .workloads = groupNames("no-sync"),
         .columns = fixedColumns({PC::gd(), PC::dd()}),
         .baseline = 1,
         .machines = defaultMachine(
             "Figure 2: no-synchronization applications, G* vs D* "
             "(normalized to D*)",
             "Fig2")},
        // All synchronization is global: GD=GH and DD=DD+RO=DH.
        {.harness = "fig3_global_sync",
         .workloads = groupNames("global-sync"),
         .columns = fixedColumns({PC::gd(), PC::dd()}),
         .machines = defaultMachine(
             "Figure 3: globally scoped synchronization "
             "microbenchmarks, G* vs D* (normalized to G*)",
             "Fig3"),
         .after = printFig3Averages},
        {.harness = "fig4_local_sync",
         .workloads = groupNames("local-sync"),
         .columns = fixedColumns(PC::studied()),
         .machines = defaultMachine(
             "Figure 4: locally scoped / hybrid synchronization "
             "benchmarks (normalized to GD)",
             "Fig4"),
         .after = printFig4Comparisons},
        // Do scoped configurations gain as the machine grows? A
        // global- and a local-sync mix that sizes itself from the CU
        // count (weak scaling).
        {.harness = "scale_sweep",
         .workloads = {"FAM_G", "SPM_G", "FAM_L", "SS_L"},
         .columns = standardConfigs,
         .machines = meshTiers(),
         .flags = cellFlags(
             {flag::raceCheck, flag::devices, flag::syncEngine})},
        // One mutex pair per scope tier: global (every acquire
        // crosses the link), device, and CU-local; DD+SE always runs.
        // Each machine sets its own device count, so no --devices.
        {.harness = "multi_device_sweep",
         .workloads = {"FAM_G", "SPM_G", "FAM_D", "SPM_D", "FAM_L"},
         .columns = fixedColumns([] {
             std::vector<PC> columns = PC::studied();
             columns.push_back(PC::ddse());
             return columns;
         }()),
         .machines = deviceTiers(),
         .flags = cellFlags({flag::raceCheck})},
        {.harness = "graph_sweep",
         .workloads = groupNames("graph"),
         .columns = fixedColumns(PC::all()),
         .baseline = 2,
         .machines = defaultMachine(
             "Graph sweep: BFS/PageRank/SSSP x push/pull x "
             "power-law/mesh, all configs (normalized to DD)",
             "GraphSweep"),
         .flags = cellFlags({flag::raceCheck, flag::devices}),
         .after = checkGraphWins},
        // The CI race gate: every sync idiom under every column,
        // DD+PR included, with the detector always on (so no
        // --race-check). Under --devices=2 the device-scope cells are
        // truly middle-scoped.
        {.harness = "race_sweep",
         .workloads = {"ST", "SGEMM", "LUD", "UTS", "FAM_G", "SPM_G",
                       "FAM_L", "SS_L", "TB_LG", "FAM_D", "SPM_D",
                       "BFS_PUSH_PL", "BFS_PULL_PL", "PR_PULL_M",
                       "SSSP_PUSH_M"},
         .columns =
             [](const Options &opts) {
                 std::vector<PC> columns = standardConfigs(opts);
                 columns.push_back(PC::ddpr());
                 return columns;
             },
         .machines = {Machine{.label = "",
                              .title = "Race sweep: happens-before "
                                       "detection, fifteen workloads x "
                                       "all configs",
                              .figure = "RaceSweep",
                              .raceCheck = true}},
         .flags = cellFlags({flag::devices, flag::syncEngine}),
         .after = printRaceTotals},
    };
    return table;
}

/** The row named @p harness; exits 2 on an unknown name. */
inline const MatrixSpec &
matrix(const std::string &harness)
{
    for (const MatrixSpec &spec : matrices()) {
        if (spec.harness == harness)
            return spec;
    }
    std::cerr << "error: no figure matrix named " << harness << "\n";
    std::exit(2);
}

/**
 * Every workload of @p spec on every column, on @p machine, fanned
 * out over opts.jobs threads. Cells come back in (workload, column)
 * order, so every table is bitwise identical under any thread count.
 */
inline std::vector<SweepCell>
runMatrix(const MatrixSpec &spec, const Machine &machine,
          const Options &opts)
{
    std::vector<CellSpec> cells;
    for (const std::string &name : spec.workloads) {
        for (const ProtocolConfig &column : spec.columns(opts))
            cells.push_back(machine.cell(opts.cellOf(name, column)));
    }
    return runCells(cells, opts,
                    [&](const CellSpec &) { return machine.label; });
}

/**
 * A figure harness: per machine, sweep the matrix, print the heading,
 * the figure and the row's extra lines, and write the JSON record.
 * Returns the exit code.
 */
inline int
runFigures(const MatrixSpec &spec, const Options &opts)
{
    for (const Machine &machine : spec.machines) {
        WallTimer timer;
        std::vector<SweepCell> cells = runMatrix(spec, machine, opts);
        std::vector<WorkloadResults> results = byWorkload(cells);
        std::cout << "=== " << machine.title << " ===\n\n";
        emitFigure(results, spec.baseline, machine.figure);
        if (int code = spec.after ? spec.after(results) : 0)
            return code;
        maybeWriteJson(opts, spec.harness, cells, timer, machine.label);
    }
    return 0;
}

/** Each matrix's results, by harness name. */
using FigureResults = std::map<std::string, std::vector<WorkloadResults>>;

/**
 * A direction: on @p matrix's figure part @p metric (0 = time,
 * 1 = energy, 2 = traffic), column @p lower averages below column
 * @p higher, both normalized to the figure's baseline.
 */
struct Claim
{
    const char *id, *matrix;
    int metric;
    const char *lower, *higher;
};

/**
 * The paper's Section 6 directions that EXPERIMENTS.md lists as
 * reproduced: headline exits 1 naming any row that flips.
 */
inline const std::vector<Claim> kReproducedClaims = {
    // No-sync apps: D* comparable to G*, slightly ahead.
    {"H1", "fig2_apps", 0, "DD", "GD"},
    {"H1", "fig2_apps", 2, "DD", "GD"},
    // Global sync: D* wins on all three metrics.
    {"H2", "fig3_global_sync", 0, "DD", "GD"},
    {"H2", "fig3_global_sync", 1, "DD", "GD"},
    {"H2", "fig3_global_sync", 2, "DD", "GD"},
    // Local sync: scopes help GPU coherence; GH beats plain DD, and
    // DD+RO removes that advantage; DH is the best protocol.
    {"H3", "fig4_local_sync", 0, "GH", "GD"},
    {"H3", "fig4_local_sync", 1, "GH", "GD"},
    {"H4", "fig4_local_sync", 0, "GH", "DD"},
    {"H5", "fig4_local_sync", 0, "DD+RO", "GH"},
    {"H6", "fig4_local_sync", 0, "DH", "GD"},
    {"H6", "fig4_local_sync", 0, "DH", "GH"},
    {"H6", "fig4_local_sync", 0, "DH", "DD"},
    {"H6", "fig4_local_sync", 0, "DH", "DD+RO"},
};

/**
 * One line per claim whose direction does not hold in @p figures,
 * e.g. "H6: Fig4a average DH 31.00% is not below DD+RO 29.00%".
 */
inline std::vector<std::string>
flippedClaims(const FigureResults &figures)
{
    std::vector<std::string> flipped;
    for (const Claim &claim : kReproducedClaims) {
        const MatrixSpec &spec = matrix(claim.matrix);
        const std::vector<WorkloadResults> &results =
            figures.at(claim.matrix);
        auto average = [&](const char *config) {
            return averageNormalized(results, claim.metric,
                                     columnOf(results, config),
                                     spec.baseline);
        };
        double lower = average(claim.lower);
        double higher = average(claim.higher);
        if (lower < higher)
            continue;
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%s: %s%c average %s %.2f%% is not below %s %.2f%%",
                      claim.id, spec.machines.front().figure.c_str(),
                      'a' + claim.metric, claim.lower, lower * 100.0,
                      claim.higher, higher * 100.0);
        flipped.emplace_back(line);
    }
    return flipped;
}

} // namespace nosync::bench

#endif // BENCH_MATRICES_HH
