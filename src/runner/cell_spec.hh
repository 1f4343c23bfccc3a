/**
 * @file
 * One simulation cell as a value: a workload, a protocol column, a
 * scale, and the SystemConfig fields some harness sweeps. It
 * round-trips through one text line, which every BENCH record cell
 * carries and `run_benchmark <line>` re-runs (DESIGN.md §10).
 */

#ifndef RUNNER_CELL_SPEC_HH
#define RUNNER_CELL_SPEC_HH

#include <optional>
#include <string>
#include <string_view>

#include "core/system_config.hh"

namespace nosync
{

/**
 * A decimal in [@p min, @p max], digits only: no sign, space or
 * suffix. The one number rule of flags, cell lines and examples.
 */
std::optional<unsigned long long>
parseDecimal(std::string_view text, unsigned long long min = 0,
             unsigned long long max = ~0ull);

struct CellSpec
{
    std::string workload;
    ProtocolConfig column = ProtocolConfig::dd();
    unsigned scale = 100;
    unsigned mesh = MeshParams{}.width; ///< side; side² − 1 CUs + CPU
    unsigned devices = 1;
    std::size_t storeBuffer = CacheGeometry{}.storeBufferEntries;
    Cycles hop = MeshParams{}.hopLatency;
    bool raceCheck = false;
    bool trace = false;
    Tick maxCycles = SystemConfig::Execution{}.maxCycles;
    std::uint64_t faultSeed = 0; ///< 0 runs fault-free
    Tick checkPeriod = 0;

    SystemConfig config() const;

    /** "<workload> <column>" and key=value per field off its default. */
    std::string toLine() const;

    /**
     * The cell @p line names. Throws std::invalid_argument naming an
     * unknown or repeated key, a malformed or out-of-range number, an
     * unknown workload or column, or a machine validate() refuses.
     */
    static CellSpec fromLine(std::string_view line);

    friend bool operator==(const CellSpec &, const CellSpec &) = default;
};

} // namespace nosync

#endif // RUNNER_CELL_SPEC_HH
