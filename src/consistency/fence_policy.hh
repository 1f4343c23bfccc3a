/**
 * @file
 * Consistency-model policy helpers.
 *
 * The DRF and HRF models share one program-order requirement (Section
 * 2 of the paper); what differs is which scope a synchronization
 * access effectively has and therefore which fences are no-ops. This
 * header centralizes those decisions so thread contexts and tests can
 * reason about them uniformly; the controllers implement the
 * corresponding cache actions.
 */

#ifndef CONSISTENCY_FENCE_POLICY_HH
#define CONSISTENCY_FENCE_POLICY_HH

#include "coherence/protocol.hh"

namespace nosync
{

/** Fence behaviour implied by a sync access under a configuration. */
struct FenceActions
{
    /** Prior buffered writes must become visible before the access. */
    bool drainBefore = false;
    /** The cache self-invalidates when the access completes. */
    bool invalidateAfter = false;
    /** The access may execute at the L1 (vs. the shared L2). */
    bool mayExecuteLocally = false;
};

/**
 * Decide fence behaviour for @p op under @p config.
 *
 * Mirrors Section 3: GPU coherence performs global sync at the L2
 * with full flash invalidations and drains; local (HRF) sync skips all
 * three. DeNovo always executes sync at the L1 (after registration)
 * and selectively invalidates only unowned words.
 */
inline FenceActions
fenceActionsFor(const SyncOp &op, const ProtocolConfig &config)
{
    FenceActions actions;
    Scope scope = config.effectiveScope(op.scope);
    bool local = scope == Scope::Local;
    actions.drainBefore = op.isRelease() && !local;
    actions.invalidateAfter = op.isAcquire() && !local;
    actions.mayExecuteLocally =
        local || config.protocol() == CoherenceProtocol::Denovo;
    return actions;
}

} // namespace nosync

#endif // CONSISTENCY_FENCE_POLICY_HH
