/**
 * @file
 * Protocol-level vocabulary shared by every coherence configuration:
 * protocol/consistency enums, synchronization scopes and semantics,
 * atomic operation descriptors, and the table of configurations.
 */

#ifndef COHERENCE_PROTOCOL_HH
#define COHERENCE_PROTOCOL_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace nosync
{

/** Coherence protocol family (Table 1's SW vs Hybrid rows). */
enum class CoherenceProtocol
{
    Gpu,    ///< conventional GPU: valid bits, writethrough, no ownership
    Denovo, ///< DeNovo: reader-initiated inval + ownership registration
};

/** Memory consistency model. */
enum class ConsistencyModel
{
    Drf, ///< data-race-free (no scopes)
    Hrf, ///< heterogeneous-race-free (HRF-Indirect, scoped sync)
};

/**
 * Synchronization scope annotation, ordered from narrowest to widest.
 * Under DRF the annotation is ignored and every synchronization
 * behaves as Global.
 */
enum class Scope
{
    Local,  ///< CU-local: thread blocks sharing one L1
    Device, ///< device-local: all CUs of the issuing device
    Global, ///< machine-wide: every device's CUs and CPUs
};

/** Ordering semantics of a synchronization access. */
enum class SyncSemantics
{
    Acquire,        ///< synchronization read
    Release,        ///< synchronization write
    AcquireRelease, ///< read-modify-write
};

/** Atomic function performed by a synchronization access. */
enum class AtomicFunc
{
    Load,        ///< sync load; returns current value
    Store,       ///< sync store; returns stored value
    FetchAdd,    ///< returns old value; word += operand
    Exchange,    ///< returns old value; word = operand
    CompareSwap, ///< returns old value; if old == compare, word = operand
};

/** A synchronization (atomic) access descriptor. */
struct SyncOp
{
    AtomicFunc func = AtomicFunc::Load;
    Addr addr = 0;
    std::uint32_t operand = 0;
    std::uint32_t compare = 0;
    Scope scope = Scope::Global;
    SyncSemantics sem = SyncSemantics::AcquireRelease;

    /**
     * Race-detector clock slot of the issuing thread block
     * (analysis::kNoRaceSlot when race checking is off or the op was
     * issued outside a TB, e.g. by a unit test driving a controller
     * directly). Carried on the descriptor so the coherence-side
     * perform sites can attribute the atomic without a lookup.
     */
    std::uint32_t tb = 0xffffffffu;

    bool
    isAcquire() const
    {
        return sem != SyncSemantics::Release;
    }

    bool
    isRelease() const
    {
        return sem != SyncSemantics::Acquire;
    }

    /** Whether the atomic can modify memory. */
    bool
    writes() const
    {
        return func != AtomicFunc::Load;
    }
};

/** Result of applying an atomic function. */
struct AtomicResult
{
    std::uint32_t newValue;  ///< value the word holds afterwards
    std::uint32_t returned;  ///< value returned to the program
    bool stored;             ///< whether the word actually changed
};

/** Functionally apply @p op to a word currently holding @p old_val. */
inline AtomicResult
applyAtomic(const SyncOp &op, std::uint32_t old_val)
{
    switch (op.func) {
      case AtomicFunc::Load:
        return {old_val, old_val, false};
      case AtomicFunc::Store:
        return {op.operand, op.operand, true};
      case AtomicFunc::FetchAdd:
        return {old_val + op.operand, old_val, true};
      case AtomicFunc::Exchange:
        return {op.operand, old_val, true};
      case AtomicFunc::CompareSwap:
        if (old_val == op.compare)
            return {op.operand, old_val, true};
        return {old_val, old_val, false};
    }
    panic("unreachable atomic func");
}

/**
 * Which words a DeNovo L1 keeps at an acquire and how its stores
 * reach the L2 (the data rows of Table 2).
 */
enum class DataPolicy : std::uint8_t
{
    Owned,     ///< every unowned word self-invalidates at an acquire
    ReadOnly,  ///< DD+RO: read-only-region words survive acquires
    /**
     * DD+PR: per-region specialization. Regions the program declares
     * streaming bypass ownership registration (stores write through
     * to the home L2 bank, GPU-style), read-only regions keep the
     * DD+RO acquire exemption, and everything else registers as
     * under DD.
     */
    PerRegion,
};

/** Where a non-CU-local synchronization access performs. */
enum class SyncSite : std::uint8_t
{
    /**
     * DeNovo: at the issuing L1 once it owns the sync word. GPU
     * coherence performs its atomics at the L2 bank regardless.
     */
    L1,
    /**
     * DD+SE: SynCron-style memory-side engine at the home L2 bank;
     * the data protocol is unchanged.
     */
    L2Engine,
};

/** One column of the comparison: its name and its value per axis. */
struct ProtocolColumn
{
    std::string_view name;
    CoherenceProtocol protocol;
    ConsistencyModel consistency;
    DataPolicy data;
    SyncSite sync;
    /** One of the five configurations the paper evaluates (5.3). */
    bool studied;
};

/**
 * Every configuration the simulator models, one row each: the
 * paper's five (Tables 1-2), the per-region DD+PR column (Salvador
 * et al.) and the SynCron-style DD+SE column. A combination that is
 * not a row cannot be configured.
 */
inline constexpr std::array<ProtocolColumn, 7> kProtocolColumns = {{
    {"GD", CoherenceProtocol::Gpu, ConsistencyModel::Drf,
     DataPolicy::Owned, SyncSite::L1, true},
    {"GH", CoherenceProtocol::Gpu, ConsistencyModel::Hrf,
     DataPolicy::Owned, SyncSite::L1, true},
    {"DD", CoherenceProtocol::Denovo, ConsistencyModel::Drf,
     DataPolicy::Owned, SyncSite::L1, true},
    {"DD+RO", CoherenceProtocol::Denovo, ConsistencyModel::Drf,
     DataPolicy::ReadOnly, SyncSite::L1, true},
    {"DH", CoherenceProtocol::Denovo, ConsistencyModel::Hrf,
     DataPolicy::Owned, SyncSite::L1, true},
    {"DD+SE", CoherenceProtocol::Denovo, ConsistencyModel::Drf,
     DataPolicy::Owned, SyncSite::L2Engine, false},
    {"DD+PR", CoherenceProtocol::Denovo, ConsistencyModel::Drf,
     DataPolicy::PerRegion, SyncSite::L1, false},
}};

/**
 * A system configuration: one row of kProtocolColumns. The row is
 * the only setting; every protocol property is read from it.
 */
class ProtocolConfig
{
  public:
    /** Row of kProtocolColumns, in table order. */
    enum class Column : std::uint8_t
    {
        Gd,
        Gh,
        Dd,
        DdRo,
        Dh,
        DdSe,
        DdPr,
    };

    constexpr ProtocolConfig() = default;
    constexpr ProtocolConfig(Column column) : _column(column) {}

    constexpr const ProtocolColumn &
    row() const
    {
        return kProtocolColumns[static_cast<std::size_t>(_column)];
    }

    constexpr CoherenceProtocol
    protocol() const
    {
        return row().protocol;
    }

    constexpr ConsistencyModel
    consistency() const
    {
        return row().consistency;
    }

    /** Read-only-region words survive acquires (DD+RO, DD+PR). */
    constexpr bool
    readOnlyRegions() const
    {
        return row().data != DataPolicy::Owned;
    }

    /** Streaming regions write through (DD+PR). */
    constexpr bool
    perRegionPolicy() const
    {
        return row().data == DataPolicy::PerRegion;
    }

    /** Non-local sync performs at the home L2 bank (DD+SE). */
    constexpr bool
    syncEngine() const
    {
        return row().sync == SyncSite::L2Engine;
    }

    /** Effective scope of a sync access under this configuration. */
    constexpr Scope
    effectiveScope(Scope annotated) const
    {
        return consistency() == ConsistencyModel::Hrf ? annotated
                                                      : Scope::Global;
    }

    /** The column's name: GD, GH, DD, DD+RO, DH, DD+SE or DD+PR. */
    std::string
    shortName() const
    {
        return std::string(row().name);
    }

    static constexpr ProtocolConfig gd() { return {Column::Gd}; }
    static constexpr ProtocolConfig gh() { return {Column::Gh}; }
    static constexpr ProtocolConfig dd() { return {Column::Dd}; }
    static constexpr ProtocolConfig ddro() { return {Column::DdRo}; }
    static constexpr ProtocolConfig dh() { return {Column::Dh}; }
    static constexpr ProtocolConfig ddse() { return {Column::DdSe}; }
    static constexpr ProtocolConfig ddpr() { return {Column::DdPr}; }

    /** Every row, in table order. */
    static std::vector<ProtocolConfig>
    all()
    {
        std::vector<ProtocolConfig> configs;
        for (std::size_t i = 0; i < kProtocolColumns.size(); ++i)
            configs.emplace_back(static_cast<Column>(i));
        return configs;
    }

    /** The paper's five studied rows, in table order. */
    static std::vector<ProtocolConfig>
    studied()
    {
        std::vector<ProtocolConfig> configs;
        for (const ProtocolConfig &config : all()) {
            if (config.row().studied)
                configs.push_back(config);
        }
        return configs;
    }

    /** The row named @p name, if there is one. */
    static std::optional<ProtocolConfig>
    byName(std::string_view name)
    {
        for (const ProtocolConfig &config : all()) {
            if (config.row().name == name)
                return config;
        }
        return std::nullopt;
    }

    friend constexpr bool operator==(ProtocolConfig,
                                     ProtocolConfig) = default;

  private:
    Column _column = Column::Gd;
};

} // namespace nosync

#endif // COHERENCE_PROTOCOL_HH
