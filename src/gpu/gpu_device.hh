/**
 * @file
 * GPU device model: kernel launch, thread-block scheduling across
 * compute units, and kernel-boundary coherence actions.
 *
 * A kernel launch performs the implicit global acquire at every
 * participating CU (kernelBegin); kernel completion performs the
 * implicit global release (kernelEnd) and the next kernel launches
 * only after every CU's release completed — the standard GPU
 * coarse-grained synchronization the paper's Section 1 describes.
 */

#ifndef GPU_GPU_DEVICE_HH
#define GPU_GPU_DEVICE_HH

#include <memory>
#include <vector>

#include "coherence/l1_controller.hh"
#include "energy/energy_model.hh"
#include "gpu/tb_context.hh"
#include "gpu/workload.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace nosync
{

/** Orchestrates a workload's kernels over the CUs. */
class GpuDevice : public SimObject
{
  public:
    /** CPU-side kernel launch latency (cycles): before the first
     *  kernel and after each kernel's drain. */
    static constexpr Cycles kLaunchLatency = 300;

    GpuDevice(EventQueue &eq, stats::StatSet &stats,
              EnergyModel &energy,
              std::vector<L1Controller *> cu_l1s, Workload &workload,
              std::uint64_t seed, trace::TraceSink *trace = nullptr,
              analysis::RaceDetector *races = nullptr,
              TbScheduler *sched = nullptr);

    /** Run every kernel; @p on_complete fires after the last drain. */
    void run(DoneCallback on_complete);

    /**
     * Per-thread-block coroutine wait states of the current kernel,
     * one line per still-running TB (for hang diagnostics). Empty
     * between kernels.
     */
    std::vector<std::string> waitStates() const;

  private:
    void launchKernel();
    void startTbs();
    void onTbDone(unsigned cu);
    void onDrainAck();
    void onKernelDrained();

    std::vector<L1Controller *> _l1s;
    EnergyModel &_energy;
    Workload &_workload;
    std::uint64_t _seed;

    unsigned _kernel = 0;
    unsigned _tbsLeft = 0;
    unsigned _drainsLeft = 0;
    Tick _kernelStart = 0;
    std::vector<unsigned> _cuTbsLeft;
    std::vector<std::unique_ptr<TbContext>> _contexts;
    DoneCallback _onComplete;

    stats::Handle<stats::Scalar> _kernelsLaunched;
    stats::Handle<stats::Scalar> _tbsExecuted;
    /** Observability sink; nullptr when tracing is disabled. */
    trace::TraceSink *_trace = nullptr;
    /** Race detector; nullptr when race checking is disabled. */
    analysis::RaceDetector *_races = nullptr;
    /** Exploration scheduler; nullptr outside model checking. */
    TbScheduler *_sched = nullptr;
};

} // namespace nosync

#endif // GPU_GPU_DEVICE_HH
