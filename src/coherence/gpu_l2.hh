/**
 * @file
 * Shared L2 bank for the conventional GPU coherence protocol.
 *
 * The L2 is the coherence point: it is kept up to date by store-buffer
 * writethroughs and it executes all globally scoped atomics. It needs
 * only a valid bit per line (plus a dirty mask toward DRAM); there are
 * no sharer lists, directories, or protocol forwards.
 */

#ifndef COHERENCE_GPU_L2_HH
#define COHERENCE_GPU_L2_HH

#include <vector>

#include "coherence/l1_controller.hh"
#include "coherence/l2_controller.hh"
#include "coherence/protocol.hh"
#include "mem/functional_mem.hh"
#include "noc/mesh.hh"

namespace nosync
{

/** Reply to a data read: the full line. */
using LineReply = SmallFn<void(const LineData &), kCallbackCapacity>;

/** One bank of the shared GPU L2. */
class GpuL2Bank final : public L2Controller
{
  public:
    GpuL2Bank(const std::string &name, EventQueue &eq,
              stats::StatSet &stats, EnergyModel &energy, Mesh &mesh,
              NodeId node, FunctionalMem &memory,
              const CacheGeometry &geom,
              trace::TraceSink *trace = nullptr);

    /** Data read request: replies with the full line. */
    void handleReadReq(Addr line_addr, NodeId requestor,
                       LineReply reply);

    /**
     * Writethrough of the masked words; acks to the requestor once
     * merged (the release-side completion point for GPU coherence).
     */
    void handleWrite(Addr line_addr, WordMask mask, const LineData &data,
                     NodeId requestor, DoneCallback ack) override;

    /** Atomic executed at the L2 (globally scoped synchronization). */
    void handleAtomic(const SyncOp &op, NodeId requestor,
                      ValueCallback reply) override;

  private:
    void describeProtocol(ControllerSnapshot &snap) const override;

    stats::Handle<stats::Scalar> _writethroughs;
    stats::Handle<stats::Scalar> _atomics;
};

} // namespace nosync

#endif // COHERENCE_GPU_L2_HH
