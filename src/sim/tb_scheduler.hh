/**
 * @file
 * Thread-block scheduling seam for systematic exploration.
 *
 * A TbContext normally issues each memory operation to its L1 the
 * moment the coroutine reaches it. When a TbScheduler is attached
 * (explore/exploring_scheduler.hh), the issue thunk is handed to the
 * scheduler instead, which decides *which ready thread block advances
 * at each quantum* — the second of the two choice axes the stateless
 * model checker enumerates (the other being message delivery order,
 * noc/delivery_policy.hh).
 *
 * The null case is the common case: every hook site holds a nullable
 * pointer and runs the thunk inline when it is null, so unexplored
 * runs are bitwise identical to builds without the seam — the same
 * pattern as trace::TraceSink and analysis::RaceDetector.
 */

#ifndef SIM_TB_SCHEDULER_HH
#define SIM_TB_SCHEDULER_HH

#include <cstdint>
#include <functional>

#include "sim/types.hh"

namespace nosync
{

/** What a held thread-block operation is (scheduler bookkeeping). */
enum class TbOpKind : std::uint8_t
{
    Load,        ///< data load (incl. a coalesced loadMany batch)
    Store,       ///< data store (incl. a coalesced storeMany batch)
    AtomicLoad,  ///< synchronization read
    AtomicStore, ///< synchronization write
    AtomicRmw,   ///< synchronization read-modify-write
};

/** Identity and footprint of one ready-to-issue operation. */
struct TbOp
{
    unsigned kernel = 0;   ///< kernel launch index
    unsigned tbGlobal = 0; ///< global thread-block index in the kernel
    unsigned cu = 0;       ///< compute unit the TB runs on
    Addr addr = 0;         ///< first word the operation touches
    TbOpKind kind = TbOpKind::Load;

    bool
    write() const
    {
        return kind == TbOpKind::Store ||
               kind == TbOpKind::AtomicStore ||
               kind == TbOpKind::AtomicRmw;
    }
};

/** Decides when a ready thread block's next operation issues. */
class TbScheduler
{
  public:
    virtual ~TbScheduler() = default;

    /**
     * A thread block reached its next memory operation. @p go issues
     * it to the L1 (and fires the trace/race hooks); the scheduler
     * owns the thunk and must run it exactly once, at the tick it
     * decides the TB advances. Holding every ready operation and
     * releasing one per decision serializes the issue order, which is
     * exactly what schedule enumeration needs.
     */
    virtual void issue(const TbOp &op, std::function<void()> go) = 0;
};

} // namespace nosync

#endif // SIM_TB_SCHEDULER_HH
