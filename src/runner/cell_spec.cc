#include "runner/cell_spec.hh"

#include <charconv>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "workloads/registry.hh"

namespace nosync
{

namespace
{

using ull = unsigned long long;

/**
 * Call @p fn(key, min, max, field of each of @p cells...) for each
 * keyed field, in line order. A side above 181 passes validate()'s
 * 32766 nodes.
 */
template <typename Fn, typename... Cells>
void
forEachKey(Fn &&fn, Cells &...cells)
{
    fn("scale", 1, 100, cells.scale...);
    fn("mesh", 2, 181, cells.mesh...);
    fn("devices", 1, 64, cells.devices...);
    fn("sb", 1, ~0ull, cells.storeBuffer...);
    fn("hop", 1, ~0ull, cells.hop...);
    fn("race", 0, 1, cells.raceCheck...);
    fn("trace", 0, 1, cells.trace...);
    fn("max_cycles", 1, ~0ull, cells.maxCycles...);
    fn("fault_seed", 0, ~0ull, cells.faultSeed...);
    fn("check_period", 0, ~0ull, cells.checkPeriod...);
}

} // namespace

std::optional<ull>
parseDecimal(std::string_view text, ull min, ull max)
{
    ull num = 0;
    const char *end = text.data() + text.size();
    auto [stop, err] = std::from_chars(text.data(), end, num);
    if (err != std::errc() || stop != end || num < min || num > max)
        return std::nullopt;
    return num;
}

SystemConfig
CellSpec::config() const
{
    SystemConfig config;
    config.protocol = column;
    config.topology.devices = devices;
    config.topology.mesh.width = config.topology.mesh.height = mesh;
    config.topology.mesh.hopLatency = hop;
    config.topology.cusPerDevice = mesh * mesh - 1;
    config.geometry.storeBufferEntries = storeBuffer;
    config.checking.raceCheckEnabled = raceCheck;
    config.checking.checkPeriod = checkPeriod;
    config.observability.traceEnabled = trace;
    config.execution.maxCycles = maxCycles;
    config.execution.faultSeed = faultSeed;
    return config;
}

std::string
CellSpec::toLine() const
{
    std::string line = workload + " " + column.shortName();
    const CellSpec base;
    forEachKey(
        [&](const char *key, ull, ull, ull field, ull default_value) {
            if (field != default_value)
                line += std::string(" ") + key + "=" + std::to_string(field);
        },
        *this, base);
    return line;
}

CellSpec
CellSpec::fromLine(std::string_view line)
{
    auto fail = [&](const std::string &what) {
        return std::invalid_argument("cell '" + std::string(line) +
                                     "': " + what);
    };
    std::istringstream words{std::string(line)};
    CellSpec cell;
    std::string column, word;
    if (!(words >> cell.workload >> column))
        throw fail("expected <workload> <column> [key=value]...");
    if (!findWorkload(cell.workload))
        throw fail("unknown workload '" + cell.workload + "'");
    std::optional<ProtocolConfig> proto = ProtocolConfig::byName(column);
    if (!proto)
        throw fail("unknown column '" + column + "'");
    cell.column = *proto;

    std::set<std::string> seen;
    while (words >> word) {
        // A word without '=' is a key with an empty, malformed value.
        std::size_t eq = word.find('=');
        std::string key = word.substr(0, eq);
        std::string value = eq == std::string::npos ? "" : word.substr(eq + 1);
        if (!seen.insert(key).second)
            throw fail("repeated key '" + key + "'");
        bool known = false;
        auto assign = [&](const char *name, ull min, ull max, auto &field) {
            if (key != name)
                return;
            known = true;
            std::optional<ull> num = parseDecimal(value, min, max);
            if (!num) {
                throw fail(key + " expects a number in [" +
                           std::to_string(min) + ", " +
                           std::to_string(max) + "], got '" + value + "'");
            }
            field = static_cast<std::remove_reference_t<decltype(field)>>(
                *num);
        };
        forEachKey(assign, cell);
        if (!known)
            throw fail("unknown key '" + key + "'");
    }
    if (std::string invalid = cell.config().validate(); !invalid.empty())
        throw fail(invalid);
    return cell;
}

} // namespace nosync
