/**
 * @file
 * Per-event dynamic energy model.
 *
 * The paper reports dynamic energy split into five components (GPU
 * core+, scratchpad, L1 D$, L2 $, network) using GPUWattch and McPAT.
 * Neither tool is available here, so we substitute event counting with
 * per-event energy constants of plausible relative magnitude (see
 * DESIGN.md). All figures in the paper are normalized, so only the
 * relative shape of these constants matters.
 */

#ifndef ENERGY_ENERGY_MODEL_HH
#define ENERGY_ENERGY_MODEL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace nosync
{

/** Energy breakdown components, matching the paper's figure legends. */
enum class EnergyComponent : unsigned
{
    GpuCore = 0, ///< "GPU core+": pipeline, RF, scheduler, i-cache
    Scratch,     ///< scratchpad accesses
    L1D,         ///< L1 data cache accesses
    L2,          ///< L2 cache accesses
    Network,     ///< NoC flit-hop energy
    NumComponents,
};

constexpr std::size_t kNumEnergyComponents =
    static_cast<std::size_t>(EnergyComponent::NumComponents);

/** Component names matching the paper's legend. */
inline const std::vector<std::string> &
energyComponentNames()
{
    static const std::vector<std::string> names = {
        "GPU_core+", "Scratch", "L1_D$", "L2_$", "N_W"};
    return names;
}

/** Accumulates dynamic energy per component. */
class EnergyModel
{
  public:
    /** @name Per-event energy constants, in picojoules. */
    /** @{ */
    static constexpr double kL1AccessPj = 30.0; ///< full L1 data access
    /** Tag-only probe (e.g. lookup miss). */
    static constexpr double kL1TagAccessPj = 10.0;
    static constexpr double kL2AccessPj = 150.0; ///< L2 bank data access
    static constexpr double kScratchAccessPj = 15.0; ///< scratchpad word
    static constexpr double kFlitHopPj = 25.0; ///< per flit per link crossing
    /**
     * Per CU per cycle while the CU has unfinished thread blocks.
     * Deliberately modest: synchronization-bound CUs spend most
     * cycles stalled with clock-gated pipelines, so dynamic core
     * energy is dominated by the memory-system events above.
     */
    static constexpr double kCoreActiveCyclePj = 15.0;
    static constexpr double kAtomicAluOpPj = 8.0; ///< extra ALU work
    /** @} */

    explicit EnergyModel(stats::StatSet &stats)
        : _energy(stats.registerVector(
              "energy.dynamic", "dynamic energy by component (pJ)",
              energyComponentNames()))
    {}

    void
    l1Access(double count = 1.0)
    {
        add(EnergyComponent::L1D, kL1AccessPj * count);
    }

    void
    l1TagAccess(double count = 1.0)
    {
        add(EnergyComponent::L1D, kL1TagAccessPj * count);
    }

    void
    l2Access(double count = 1.0)
    {
        add(EnergyComponent::L2, kL2AccessPj * count);
    }

    void
    scratchAccess(double count = 1.0)
    {
        add(EnergyComponent::Scratch, kScratchAccessPj * count);
    }

    void
    atomicAlu(double count = 1.0)
    {
        add(EnergyComponent::GpuCore, kAtomicAluOpPj * count);
    }

    void
    coreActiveCycles(double cycles)
    {
        add(EnergyComponent::GpuCore, kCoreActiveCyclePj * cycles);
    }

    void
    flitCrossings(double crossings)
    {
        add(EnergyComponent::Network, kFlitHopPj * crossings);
    }

    double
    component(EnergyComponent c) const
    {
        return _energy->value(static_cast<std::size_t>(c));
    }

    double total() const { return _energy->total(); }

  private:
    void
    add(EnergyComponent c, double pj)
    {
        _energy->add(static_cast<std::size_t>(c), pj);
    }

    stats::Handle<stats::Vector> _energy;
};

} // namespace nosync

#endif // ENERGY_ENERGY_MODEL_HH
