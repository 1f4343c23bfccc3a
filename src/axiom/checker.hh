/**
 * @file
 * Axiomatic memory-model checker: herd-style candidate-execution
 * evaluation of the litmus suite, without running a simulated cycle.
 *
 * For one (program, configuration) cell the checker enumerates every
 * candidate execution of the static IR (axiom/program.hh) admitted by
 * the configuration's axiom set (axiom/model.hh):
 *
 *  - *Candidate structure.* The simulator's model-checking seam runs
 *    one thread-block operation to quiescence at a time, so a
 *    candidate execution is a total order `to` over the executed
 *    operations that respects program order, register guards, and
 *    the Delay phase barrier. The coherence order `co` of each
 *    variable is `to` restricted to its writes.
 *  - *Scope-visibility axiom.* A write is visible to its own CU
 *    immediately; beyond that only as published. A release at
 *    effective scope s publishes itself and every program-order-
 *    earlier write of its thread at tier s (CU / device / machine).
 *    Under DRF models every annotation folds to Global; on a
 *    single-device machine the Device tier folds into Global.
 *  - *Reads-from enumeration.* Each read's rf candidates are the
 *    visible writes of its variable (plus the initial value); the
 *    coherence axiom — no visible write may sit co-between rf(r) and
 *    r (fr ∪ co ∪ to acyclicity, specialized to a total `to`) —
 *    prunes stale candidates, and the checker fans out over whatever
 *    survives.
 *  - *Race axioms.* Each execution is replayed through scoped
 *    FastTrack clocks (per-CU / per-device / global publication
 *    tiers plus the as-if-all-sync-were-global shadow, mirroring
 *    analysis::RaceDetector): an unordered conflicting pair is a
 *    data race, or a scope race when only the shadow orders it.
 *
 * The cell report carries the axiomatic outcome set and the static
 * race verdict; crossCheck() proves them equal to the DPOR explorer's
 * operational outcome set and the dynamic detector's per-schedule
 * verdicts, naming program, config, and every divergent outcome.
 */

#ifndef AXIOM_CHECKER_HH
#define AXIOM_CHECKER_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "axiom/model.hh"
#include "axiom/program.hh"
#include "coherence/protocol.hh"

namespace nosync
{
namespace explore
{
class LitmusWorkload;
struct CellReport;
} // namespace explore

namespace axiom
{

/** One axiomatically allowed final-state outcome. */
struct AxiomOutcome
{
    std::string outcome;
    bool allowed = false; ///< per the litmus program's oracle
};

/** Static verdict of one (program, config) cell. */
struct AxiomCellReport
{
    std::string program;
    std::string config;
    std::string model; ///< axiom-set name (AxiomModel::name)

    std::uint64_t interleavings = 0; ///< admissible total orders
    std::uint64_t executions = 0;    ///< consistent candidates
    std::uint64_t rfPruned = 0;      ///< rf candidates axiom-killed
    std::uint64_t racyExecutions = 0;

    /** Sorted by outcome string (deterministic). */
    std::vector<AxiomOutcome> outcomes;

    /** Sorted unique racing-pair descriptions. */
    std::vector<std::string> races;
    std::uint64_t dataRacePairs = 0;
    std::uint64_t scopeRacePairs = 0;

    /** "race-free" | "scope-race" | "data-race". */
    std::string verdict;

    /** Every axiomatic outcome is allowed by the litmus oracle. */
    bool oracleOk = true;

    bool raceFree() const { return racyExecutions == 0; }

    bool
    allRacy() const
    {
        return executions != 0 && racyExecutions == executions;
    }

    /** All racing pairs (if any) are scope races. */
    bool
    scopeOnly() const
    {
        return dataRacePairs == 0;
    }
};

/** Renders a final register state as an outcome string. */
using OutcomeFormatter =
    std::function<std::string(const std::vector<std::uint32_t> &)>;

/** Oracle: is this outcome string allowed? */
using OutcomeOracle = std::function<bool(const std::string &)>;

/**
 * Core evaluator: statically check a raw @p prog under @p model.
 * The formatter renders each execution's final registers; a null
 * oracle marks every outcome allowed (exploratory mode). Exposed so
 * tests can check geometries (multi-device) and shapes (rmw) the
 * litmus machine never runs.
 */
AxiomCellReport checkProgram(const Program &prog,
                             const AxiomModel &model,
                             const OutcomeFormatter &format,
                             const OutcomeOracle &allowed);

/**
 * Statically check @p workload under @p proto on the litmus machine
 * (one device, as the explorer runs it). Pure function of the IR and
 * the axiom set.
 */
AxiomCellReport checkCell(const explore::LitmusWorkload &workload,
                          const ProtocolConfig &proto);

/** Result of cross-validating one cell against the explorer. */
struct CrossCheckResult
{
    std::string program;
    std::string config;
    bool checked = false; ///< a matching operational cell existed
    bool ok = false;
    /** Each diff names program, config, and the divergence. */
    std::vector<std::string> diffs;
};

/**
 * Prove the static and operational views of one cell agree: equal
 * outcome sets, matching race/scope-race verdicts (the explorer's
 * per-schedule dynamic-detector counts), and a passing operational
 * verdict (a budget-exhausted exploration proves nothing).
 */
CrossCheckResult crossCheck(const AxiomCellReport &axiom,
                            const explore::CellReport &cell);

/** Full report of one axiomatic (or cross-checked) invocation. */
struct AxiomReport
{
    std::vector<AxiomCellReport> cells;
    /** Parallel to cells when cross-checking; empty otherwise. */
    std::vector<CrossCheckResult> crossChecks;

    std::uint64_t countVerdict(const char *verdict) const;

    /** Every cell oracle-clean, every cross-check (if any) passing. */
    bool allOk() const;

    /** 0 all ok, 1 any oracle or cross-check failure. */
    int exitCode() const;
};

/** Emit the schema_version-ed axiomatic report
 *  (tools/validate_axiom.py checks the emission). */
void writeAxiomJson(const AxiomReport &report, std::ostream &os);

/** writeAxiomJson to @p path; false (with perror) on I/O failure. */
bool writeAxiomJsonFile(const AxiomReport &report,
                        const std::string &path);

/** Render a human-readable per-cell summary table. */
void renderAxiomReport(const AxiomReport &report, std::ostream &os);

} // namespace axiom
} // namespace nosync

#endif // AXIOM_CHECKER_HH
