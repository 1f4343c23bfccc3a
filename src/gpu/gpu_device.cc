#include "gpu/gpu_device.hh"

#include "trace/trace_sink.hh"

namespace nosync
{

GpuDevice::GpuDevice(EventQueue &eq, stats::StatSet &stats,
                     EnergyModel &energy,
                     std::vector<L1Controller *> cu_l1s,
                     Workload &workload, std::uint64_t seed,
                     trace::TraceSink *trace,
                     analysis::RaceDetector *races,
                     TbScheduler *sched)
    : SimObject("gpu", eq), _l1s(std::move(cu_l1s)), _energy(energy),
      _workload(workload), _seed(seed),
      _kernelsLaunched(stats.registerScalar("gpu.kernels_launched",
                                            "kernels launched")),
      _tbsExecuted(stats.registerScalar("gpu.tbs_executed",
                                        "thread blocks executed")),
      _trace(trace), _races(races), _sched(sched)
{
    panic_if(_l1s.empty(), "GPU device with no compute units");
}

void
GpuDevice::run(DoneCallback on_complete)
{
    _onComplete = std::move(on_complete);
    _kernel = 0;
    scheduleIn(kLaunchLatency, [this] { launchKernel(); });
}

void
GpuDevice::launchKernel()
{
    panic_if(_kernel >= _workload.numKernels(),
             "launching past the last kernel");
    ++_kernelsLaunched;
    KernelInfo info = _workload.kernelInfo(_kernel);
    panic_if(info.numTbs == 0, "kernel with zero thread blocks");
    if (_trace) {
        _trace->record(curTick(), trace::Phase::KernelLaunch, 0, 0, 0,
                       static_cast<std::uint16_t>(_kernel));
    }

    // Implicit global acquire at kernel launch on every CU.
    for (L1Controller *l1 : _l1s)
        l1->kernelBegin();

    _kernelStart = curTick();
    _tbsLeft = info.numTbs;
    _cuTbsLeft.assign(_l1s.size(), 0);
    _contexts.clear();
    startTbs();
}

void
GpuDevice::startTbs()
{
    KernelInfo info = _workload.kernelInfo(_kernel);
    unsigned num_cus = static_cast<unsigned>(_l1s.size());

    for (unsigned tb = 0; tb < info.numTbs; ++tb) {
        unsigned cu = tb % num_cus;
        unsigned tb_on_cu = tb / num_cus;
        ++_cuTbsLeft[cu];

        // Deterministic per-TB seed so every configuration sees the
        // same workload shape (modulo timing feedback).
        std::uint64_t tb_seed =
            _seed ^ (0x51ed270b1ull * (_kernel + 1)) ^
            (0x9e3779b97f4a7c15ull * (tb + 1));
        unsigned race_slot = analysis::kNoRaceSlot;
        if (_races)
            race_slot = _races->tbStarted(_kernel, tb, cu);
        _contexts.push_back(std::make_unique<TbContext>(
            eventQueue(), *_l1s[cu], _energy, Rng(tb_seed), _kernel,
            tb, cu, tb_on_cu, num_cus,
            (info.numTbs + num_cus - 1) / num_cus, _trace, _races,
            race_slot, _sched));
    }

    // Start after all contexts exist (coroutines may finish
    // synchronously and mutate shared counters).
    for (auto &ctx : _contexts) {
        unsigned cu = ctx->cu();
        SimTask task = _workload.tbMain(*ctx);
        task.start([this, cu, c = ctx.get()] {
            c->markDone();
            onTbDone(cu);
        });
    }
}

std::vector<std::string>
GpuDevice::waitStates() const
{
    std::vector<std::string> out;
    for (const auto &ctx : _contexts) {
        if (!ctx->done())
            out.push_back(ctx->waitSummary());
    }
    return out;
}

void
GpuDevice::onTbDone(unsigned cu)
{
    ++_tbsExecuted;
    panic_if(_cuTbsLeft[cu] == 0, "TB completion underflow on CU ", cu);
    if (--_cuTbsLeft[cu] == 0) {
        // This CU went idle: account its active-cycle energy for the
        // kernel (GPU core+ component).
        _energy.coreActiveCycles(
            static_cast<double>(curTick() - _kernelStart));
    }

    panic_if(_tbsLeft == 0, "kernel TB count underflow");
    if (--_tbsLeft != 0)
        return;

    // Implicit global release: every CU drains before the kernel is
    // considered complete.
    _drainsLeft = 0;
    for (std::size_t cu_idx = 0; cu_idx < _l1s.size(); ++cu_idx)
        ++_drainsLeft;
    for (L1Controller *l1 : _l1s)
        l1->kernelEnd([this] { onDrainAck(); });
}

void
GpuDevice::onDrainAck()
{
    panic_if(_drainsLeft == 0, "kernel drain underflow");
    if (--_drainsLeft == 0)
        onKernelDrained();
}

void
GpuDevice::onKernelDrained()
{
    if (_trace) {
        _trace->record(curTick(), trace::Phase::KernelDrain, 0, 0, 0,
                       static_cast<std::uint16_t>(_kernel));
    }
    if (_races) {
        // Kernel drain: the implicit device-wide release/acquire
        // pair. Every TB's clock joins the device base clock the
        // next kernel's TBs inherit.
        for (const auto &ctx : _contexts)
            _races->tbFinished(ctx->raceSlot());
    }
    _contexts.clear();
    ++_kernel;
    if (_kernel < _workload.numKernels()) {
        scheduleIn(kLaunchLatency, [this] { launchKernel(); });
        return;
    }
    auto done = std::move(_onComplete);
    if (done)
        done();
}

} // namespace nosync
