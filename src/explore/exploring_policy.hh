/**
 * @file
 * DeliveryPolicy that enumerates message delivery orders.
 *
 * The second choice axis of the model checker: at each mesh send, the
 * policy decides whether the message arrives at its nominal tick or
 * is delayed past a competing in-flight message. Branching is
 * contention-gated — a delivery point has fanout 2 only when another
 * in-flight message from a *different* source is bound for the same
 * destination with an arrival at or after this message's nominal
 * arrival (delaying past it flips the arrival order at the
 * destination; delaying with no competitor is equivalent to the
 * nominal schedule plus idle time and would only blow up the tree).
 *
 * Exploration is delay-bounded: at most `deliverDepth` delays per
 * run, the standard bounded technique for making delivery-order
 * spaces finite while still covering the reorderings that change
 * protocol behavior. Like the FaultInjector, the policy clamps every
 * chosen arrival to the same-(src,dst) FIFO floor
 * (DeliveryPolicy::fifoFloor), so the mesh's pairwise ordering
 * invariant — which the coherence protocols rely on — is preserved on
 * every explored schedule.
 */

#ifndef EXPLORE_EXPLORING_POLICY_HH
#define EXPLORE_EXPLORING_POLICY_HH

#include <algorithm>

#include "explore/decision_log.hh"
#include "noc/delivery_policy.hh"
#include "noc/mesh.hh"

namespace nosync
{
namespace explore
{

/** Script-driven, delay-bounded delivery-order enumeration. */
class ExploringPolicy : public DeliveryPolicy
{
  public:
    ExploringPolicy(ChoiceScript &script, DecisionLog &log,
                    unsigned deliverDepth)
        : _script(script), _log(log), _deliverDepth(deliverDepth)
    {}

    /** The mesh whose in-flight registry gates branching. */
    void attach(const Mesh *mesh) { _mesh = mesh; }

    Tick
    adjust(NodeId src, NodeId dst, Tick nominal) override
    {
        // A competitor is an undelivered message to the same
        // destination from another source that arrives at or after
        // this message's nominal tick; delaying just past the latest
        // competitor realizes the flipped arrival order.
        Tick latest = 0;
        bool competitor = false;
        if (_delaysUsed < _deliverDepth && _mesh != nullptr) {
            for (const InFlightMsg &m : _mesh->inFlightSnapshot()) {
                if (m.dst == dst && m.src != src &&
                    m.arrives >= nominal) {
                    competitor = true;
                    latest = std::max(latest, m.arrives);
                }
            }
        }

        unsigned n = competitor ? 2 : 1;
        unsigned choice = 0;
        bool consumed = false;
        if (n > 1) {
            choice = _script.take(n);
            consumed = true;
        }

        Tick arrival = nominal;
        if (choice == 1) {
            arrival = latest + 1;
            ++_delaysUsed;
        }

        // Never deliver before an earlier message on the same
        // (src, dst) pair; the log records the clamped arrival.
        arrival = fifoFloor(src, dst, arrival);

        ChoicePoint point;
        point.kind = ChoicePoint::Kind::Delivery;
        point.numOptions = n;
        point.chosen = choice;
        point.consumedScript = consumed;
        point.src = src;
        point.dst = dst;
        point.nominal = nominal;
        point.arrival = arrival;
        _log.points.push_back(std::move(point));

        return arrival;
    }

    /** Exploration never duplicates messages. */
    bool rollDuplicate() override { return false; }
    Cycles duplicateDelay() override { return 1; }

  private:
    ChoiceScript &_script;
    DecisionLog &_log;
    const Mesh *_mesh = nullptr;
    unsigned _deliverDepth = 0;
    unsigned _delaysUsed = 0;
};

} // namespace explore
} // namespace nosync

#endif // EXPLORE_EXPLORING_POLICY_HH
