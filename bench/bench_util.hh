/**
 * @file
 * Shared helpers for the figure-regeneration harnesses.
 *
 * Each harness parses its command line against its own table of
 * FlagSpec rows — only the flags it acts on — and runs its
 * (workload x config) matrices through the SweepRunner, so `--jobs=N`
 * parallelizes a sweep across host threads while keeping the printed
 * tables bitwise identical to a serial run. `--json=PATH`
 * additionally emits the full result matrix as a machine-readable
 * BENCH_*.json record.
 */

#ifndef BENCH_BENCH_UTIL_HH
#define BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/report.hh"
#include "core/system.hh"
#include "runner/bench_json.hh"
#include "runner/cell_spec.hh"
#include "runner/sweep_runner.hh"
#include "workloads/registry.hh"

namespace nosync::bench
{

struct FlagSpec;

/**
 * The options a harness's flags set. Each harness parses against its
 * own FlagSpec table, so a field keeps its default unless the harness
 * acts on it.
 */
struct Options
{
    /**
     * The base cell --scale, --devices, --race-check, --max-cycles and
     * --trace write; a harness's cells start from it (cellOf).
     */
    CellSpec cell;
    /** Worker threads for sweeps; 0 = one per hardware thread. */
    unsigned jobs = 1;
    /** Emit the result matrix as JSON to this path ("" = don't). */
    std::string jsonPath;
    /**
     * Enable transaction tracing and write per-cell Chrome trace
     * JSON derived from this path ("" = tracing off). Each cell gets
     * its own file — stem.<workload>.<config>.json — so parallel
     * sweeps (--jobs=N) never contend for one output file.
     */
    std::string tracePath;
    /**
     * Write per-cell race reports as JSON derived from this path
     * ("" = don't). Implies --race-check. Cells split files the same
     * way --trace does, so --jobs=N never contends for one file.
     */
    std::string raceJsonPath;
    /**
     * Add the DD+SE (memory-side sync engine) column to the harness's
     * config matrix.
     */
    bool syncEngine = false;

    /** The base cell with @p workload on @p column. */
    CellSpec
    cellOf(const std::string &workload, ProtocolConfig column) const
    {
        CellSpec spec = cell;
        spec.workload = workload;
        spec.column = column;
        return spec;
    }

    /**
     * Parse @p argv against @p flags, the harness's whole table,
     * starting from @p defaults. Any other argument prints "unknown
     * option" and the usage line generated from the table, and exits
     * 2 — a flag the harness would ignore must not look accepted.
     * An output path (--json, --race-json, --trace) whose directory
     * cannot be written exits 1 here, before any cell runs.
     */
    static Options parse(int argc, char **argv,
                         const std::vector<FlagSpec> &flags,
                         Options defaults);
};

/**
 * One typed command-line flag: a boolean toggle, a string, or a
 * strictly validated number. A harness's table is a list of rows —
 * the common ones below, which write into Options, and its own rows,
 * which write into locals they capture — so parsing, validation and
 * the usage line come from one place.
 */
struct FlagSpec
{
    enum class Kind : std::uint8_t
    {
        Toggle, ///< bare flag, no value
        String, ///< --name=TEXT, taken verbatim
        Number, ///< --name=N, strict parse + [min, max] check
        Real,   ///< --name=X, strict positive-double parse
    };

    const char *name; ///< flag name including leading dashes
    Kind kind;
    /** Inclusive numeric range (Kind::Number only). */
    unsigned long long min = 0;
    unsigned long long max = ~0ull;
    /**
     * Error-message noun phrase, e.g. "a positive cycle count"; for
     * Kind::String, the value's name in the usage line ("PATH" when
     * empty).
     */
    const char *expects = "";
    /** Store the parsed value (num for numeric kinds, text else). */
    std::function<void(Options &, unsigned long long num,
                       const char *text)>
        apply;

    /** Usage fragment: " [--name]", " [--name=N]", " [--name=PATH]". */
    std::string
    usage() const
    {
        switch (kind) {
          case Kind::Toggle: return std::string(" [") + name + "]";
          case Kind::String:
            return std::string(" [") + name + "=" +
                   (*expects ? expects : "PATH") + "]";
          case Kind::Real: return std::string(" [") + name + "=X]";
          default: return std::string(" [") + name + "=N]";
        }
    }

    /** Try to consume @p arg; exits(2) on a malformed value. */
    bool
    match(const char *arg, Options &opts) const
    {
        std::size_t len = std::strlen(name);
        if (kind == Kind::Toggle) {
            if (std::strcmp(arg, name) != 0)
                return false;
            apply(opts, 0, "");
            return true;
        }
        if (std::strncmp(arg, name, len) != 0 || arg[len] != '=')
            return false;
        const char *value = arg + len + 1;
        switch (kind) {
          case Kind::String:
            apply(opts, 0, value);
            return true;
          case Kind::Real: {
            // Strict: the validated text is re-read by apply, so the
            // double survives the integer-shaped apply signature.
            // from_chars takes no leading space or '+'; nan and inf
            // parse, so require a finite value.
            const char *end = value + std::strlen(value);
            double parsed = 0.0;
            auto [stop, err] = std::from_chars(value, end, parsed);
            if (err != std::errc() || stop != end ||
                !std::isfinite(parsed) || parsed <= 0.0) {
                std::cerr << "error: " << name << " expects "
                          << expects << ", got '" << value << "'\n";
                std::exit(2);
            }
            apply(opts, 0, value);
            return true;
          }
          default:
            break;
        }
        // Strict parse: a garbled count must not silently fall back
        // to a default and masquerade as the requested experiment.
        auto num = parseDecimal(value, min, max);
        if (!num) {
            std::cerr << "error: " << name << " expects " << expects
                      << ", got '" << value << "'\n";
            std::exit(2);
        }
        apply(opts, *num, value);
        return true;
    }
};

/** The common rows; a harness's table lists the ones it acts on. */
namespace flag
{

using ull = unsigned long long;

inline const FlagSpec scale = {
    "--scale", FlagSpec::Kind::Number, 1, 100, "a percentage in [1, 100]",
    [](Options &o, ull num, const char *) {
        o.cell.scale = static_cast<unsigned>(num);
    }};
inline const FlagSpec jobs = {
    "--jobs", FlagSpec::Kind::Number, 0, 1024,
    "a job count in [0, 1024] (0 = one per hardware thread)",
    [](Options &o, ull num, const char *) {
        o.jobs = SweepRunner::resolveJobs(static_cast<unsigned>(num));
    }};
inline const FlagSpec json = {
    "--json", FlagSpec::Kind::String, 0, 0, "",
    [](Options &o, ull, const char *text) { o.jsonPath = text; }};
inline const FlagSpec trace = {
    "--trace", FlagSpec::Kind::String, 0, 0, "",
    [](Options &o, ull, const char *text) {
        o.tracePath = text;
        o.cell.trace = *text != '\0';
    }};
inline const FlagSpec raceCheck = {
    "--race-check", FlagSpec::Kind::Toggle, 0, 0, "",
    [](Options &o, ull, const char *) { o.cell.raceCheck = true; }};
inline const FlagSpec raceJson = {
    "--race-json", FlagSpec::Kind::String, 0, 0, "",
    [](Options &o, ull, const char *text) {
        o.raceJsonPath = text;
        o.cell.raceCheck = true;
    }};
inline const FlagSpec maxCycles = {
    "--max-cycles", FlagSpec::Kind::Number, 1, ~0ull,
    "a positive cycle count",
    [](Options &o, ull num, const char *) {
        o.cell.maxCycles = static_cast<Tick>(num);
    }};
inline const FlagSpec devices = {
    "--devices", FlagSpec::Kind::Number, 1, 64,
    "a device count in [1, 64]",
    [](Options &o, ull num, const char *) {
        o.cell.devices = static_cast<unsigned>(num);
    }};
inline const FlagSpec syncEngine = {
    "--sync-engine", FlagSpec::Kind::Toggle, 0, 0, "",
    [](Options &o, ull, const char *) { o.syncEngine = true; }};

} // namespace flag

/**
 * The table of a harness whose cells run through runCells: the flags
 * every such cell acts on, then @p extra. --race-check, --devices and
 * --sync-engine go in @p extra only where the harness's machines and
 * columns do not override them.
 */
inline std::vector<FlagSpec>
cellFlags(std::initializer_list<FlagSpec> extra)
{
    std::vector<FlagSpec> table = {flag::scale,    flag::jobs,
                                   flag::json,     flag::trace,
                                   flag::raceJson, flag::maxCycles};
    table.insert(table.end(), extra);
    return table;
}

// The default argument lives here: Options is complete only now.
inline Options
Options::parse(int argc, char **argv, const std::vector<FlagSpec> &flags,
               Options defaults = {})
{
    Options opts = defaults;
    for (int i = 1; i < argc; ++i) {
        auto consumes = [&](const FlagSpec &spec) {
            return spec.match(argv[i], opts);
        };
        if (std::any_of(flags.begin(), flags.end(), consumes))
            continue;
        std::cerr << "error: unknown option " << argv[i]
                  << "\nusage: " << argv[0];
        for (const FlagSpec &spec : flags)
            std::cerr << spec.usage();
        std::cerr << "\n";
        std::exit(2);
    }
    for (const std::string *path :
         {&opts.jsonPath, &opts.raceJsonPath, &opts.tracePath}) {
        if (path->empty())
            continue;
        std::filesystem::path dir =
            std::filesystem::path(*path).parent_path();
        if (dir.empty())
            dir = ".";
        std::error_code ec;
        if (!std::filesystem::is_directory(dir, ec) ||
            ::access(dir.c_str(), W_OK) != 0) {
            std::cerr << "error: cannot write " << *path << "\n";
            std::exit(1);
        }
    }
    return opts;
}

/** Wall-clock stopwatch for the harness-level JSON header. */
class WallTimer
{
  public:
    double
    millis() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - _start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point _start =
        std::chrono::steady_clock::now();
};

/**
 * @p base with ".<label>" inserted before its extension (".json" if
 * it has none): per-cell trace and race files, per-scale records.
 * An empty @p label leaves @p base as it is.
 */
inline std::string
labeledPath(const std::string &base, const std::string &label)
{
    if (label.empty())
        return base;
    std::string::size_type dot = base.rfind('.');
    std::string::size_type slash = base.rfind('/');
    std::string stem = base;
    std::string ext = ".json";
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash)) {
        stem = base.substr(0, dot);
        ext = base.substr(dot);
    }
    return stem + "." + label + ext;
}

/** One L1 counter, e.g. "load_hits", summed over every CU. */
inline double
sumL1Stat(const System &system, const std::string &name)
{
    double sum = 0.0;
    for (unsigned cu = 0; cu < system.numCus(); ++cu) {
        sum += system.stats()
                   .find("l1." + std::to_string(cu) + "." + name)
                   ->value();
    }
    return sum;
}

/**
 * The paper's five-config comparison column set, plus the DD+SE
 * memory-side sync engine as a sixth column under --sync-engine.
 */
inline std::vector<ProtocolConfig>
standardConfigs(const Options &opts)
{
    std::vector<ProtocolConfig> configs = ProtocolConfig::studied();
    if (opts.syncEngine)
        configs.push_back(ProtocolConfig::ddse());
    return configs;
}

/** Print diagnostics and re-run lines; exit(1) if any run failed. */
inline void
requireAllOk(const std::vector<SweepCell> &cells)
{
    bool failed = false;
    for (const auto &[spec, result] : cells) {
        if (result.ok())
            continue;
        failed = true;
        std::cerr << "CHECK FAILED: " << result.workload << " on "
                  << result.config << "\n  re-run: run_benchmark "
                  << spec.toLine() << "\n";
        for (const auto &failure : result.checkFailures)
            std::cerr << "  " << failure << "\n";
        if (result.hang)
            std::cerr << renderHangReport(*result.hang);
        if (result.races.enabled && result.races.racesDetected != 0)
            std::cerr << analysis::renderRaceReport(result.races);
    }
    if (failed)
        std::exit(1);
}

/**
 * Run @p cells over opts.jobs threads, each on a fresh System, and
 * exit(1) naming any that failed; runs come back in cell order. Under
 * --trace and --race-json each cell writes its own files, tagged
 * @p label(cell) when given; @p inspect(i, system) reads cell i's
 * finished System.
 */
inline std::vector<SweepCell>
runCells(const std::vector<CellSpec> &cells, const Options &opts,
         const std::function<std::string(const CellSpec &)> &label = {},
         const std::function<void(std::size_t, const System &)> &inspect =
             {})
{
    auto run = [&](std::size_t i) {
        const CellSpec &spec = cells[i];
        std::string name = spec.workload + "." + spec.column.shortName();
        SweepRunner::log("  running " + name + "...");
        // Files are stem[.<label>].<workload>.<column>.json.
        if (std::string tag = label ? label(spec) : ""; !tag.empty())
            name = tag + "." + name;
        auto workload = makeScaled(spec.workload, spec.scale);
        System system(spec.config());
        RunResult result = system.run(*workload);
        if (inspect)
            inspect(i, system);
        // A machine may trace just for the sync-latency summaries
        // (BENCH latency blocks); only --trace=PATH writes trace files.
        std::string path = labeledPath(opts.tracePath, name);
        if (system.trace() && !opts.tracePath.empty() &&
            !system.trace()->writeChromeJson(path)) {
            std::cerr << "error: cannot write trace " << path << "\n";
            std::exit(1);
        }
        path = labeledPath(opts.raceJsonPath, name);
        if (!opts.raceJsonPath.empty() && result.races.enabled &&
            !analysis::writeRaceJson(result.races, path)) {
            std::cerr << "error: cannot write race report " << path << "\n";
            std::exit(1);
        }
        return SweepCell{spec, std::move(result)};
    };
    std::vector<SweepCell> runs = SweepRunner(opts.jobs).map(cells.size(), run);
    requireAllOk(runs);
    return runs;
}

/**
 * Emit @p cells as a BENCH_*.json record when --json=PATH was given.
 * Call once per record, at the end, with every cell it holds. A
 * harness that writes several records names each with a @p label:
 * the record's harness becomes harness/label and its file
 * labeledPath(PATH, label).
 */
inline void
maybeWriteJson(const Options &opts, const std::string &harness,
               const std::vector<SweepCell> &cells,
               const WallTimer &timer, const std::string &label = "")
{
    if (opts.jsonPath.empty())
        return;
    SweepRecord record;
    record.harness = label.empty() ? harness : harness + "/" + label;
    record.jobs = opts.jobs;
    record.cells = cells;
    record.wallMillis = timer.millis();
    std::string path = labeledPath(opts.jsonPath, label);
    if (!record.writeJson(path)) {
        std::cerr << "error: cannot write " << path << "\n";
        std::exit(1);
    }
    std::cerr << "wrote " << path << " (" << record.cells.size()
              << " cells)\n";
}

/** @p cells' runs grouped by workload, in order: a figure's rows. */
inline std::vector<WorkloadResults>
byWorkload(const std::vector<SweepCell> &cells)
{
    std::vector<WorkloadResults> results;
    for (const auto &[spec, result] : cells) {
        if (results.empty() || results.back().workload != spec.workload)
            results.push_back(WorkloadResults{spec.workload, {}});
        results.back().runs.push_back(result);
    }
    return results;
}

/** Emit the three figure parts and their breakdowns. */
inline void
emitFigure(const std::vector<WorkloadResults> &results,
           std::size_t baseline, const std::string &figure)
{
    std::cout << renderFigure(results, 0, baseline,
                              figure + "a: execution time (normalized)")
              << "\n";
    std::cout << renderFigure(results, 1, baseline,
                              figure + "b: dynamic energy (normalized)")
              << "\n";
    std::cout << renderFigure(results, 2, baseline,
                              figure +
                                  "c: network traffic (flit "
                                  "crossings, normalized)")
              << "\n";
    std::cout << "== " << figure
              << "b breakdown (energy by component, % of baseline "
                 "total) ==\n"
              << renderEnergyBreakdown(results, baseline) << "\n";
    std::cout << "== " << figure
              << "c breakdown (traffic by class, % of baseline "
                 "total) ==\n"
              << renderTrafficBreakdown(results, baseline) << "\n";
}

} // namespace nosync::bench

#endif // BENCH_BENCH_UTIL_HH
