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

/** Per-event energy constants, in picojoules. */
struct EnergyParams
{
    double l1Access = 30.0;      ///< full L1 data access
    double l1TagAccess = 10.0;   ///< tag-only probe (e.g. lookup miss)
    double l2Access = 150.0;     ///< L2 bank data access
    double scratchAccess = 15.0; ///< scratchpad word access
    double flitHop = 25.0;       ///< per flit per link crossing
    /**
     * Per CU per cycle while the CU has unfinished thread blocks.
     * Deliberately modest: synchronization-bound CUs spend most
     * cycles stalled with clock-gated pipelines, so dynamic core
     * energy is dominated by the memory-system events above.
     */
    double coreActiveCycle = 15.0;
    double atomicAluOp = 8.0;    ///< extra ALU work for an atomic
};

/** Accumulates dynamic energy per component. */
class EnergyModel
{
  public:
    EnergyModel(stats::StatSet &stats, const EnergyParams &params)
        : _params(params),
          _energy(stats.registerVector(
              "energy.dynamic", "dynamic energy by component (pJ)",
              energyComponentNames()))
    {}

    const EnergyParams &params() const { return _params; }

    void
    l1Access(double count = 1.0)
    {
        add(EnergyComponent::L1D, _params.l1Access * count);
    }

    void
    l1TagAccess(double count = 1.0)
    {
        add(EnergyComponent::L1D, _params.l1TagAccess * count);
    }

    void
    l2Access(double count = 1.0)
    {
        add(EnergyComponent::L2, _params.l2Access * count);
    }

    void
    scratchAccess(double count = 1.0)
    {
        add(EnergyComponent::Scratch, _params.scratchAccess * count);
    }

    void
    atomicAlu(double count = 1.0)
    {
        add(EnergyComponent::GpuCore, _params.atomicAluOp * count);
    }

    void
    coreActiveCycles(double cycles)
    {
        add(EnergyComponent::GpuCore,
            _params.coreActiveCycle * cycles);
    }

    void
    flitCrossings(double crossings)
    {
        add(EnergyComponent::Network, _params.flitHop * crossings);
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

    EnergyParams _params;
    stats::Handle<stats::Vector> _energy;
};

} // namespace nosync

#endif // ENERGY_ENERGY_MODEL_HH
