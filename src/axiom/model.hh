/**
 * @file
 * Per-configuration axiom sets for the axiomatic checker.
 *
 * Each of the six studied protocol columns maps to one declarative
 * AxiomModel — a handful of booleans the candidate-execution
 * evaluator interprets, named so a disagreement report can say which
 * axiom set a verdict came from:
 *
 *  - "sc-drf" (GD, DD, DD+RO): scope annotations are ignored — every
 *    synchronization is globally effective, so release publication
 *    and release->acquire ordering are machine-wide. One unscoped
 *    model covers all three DRF columns; the protocol differences
 *    (writethrough vs ownership, read-only regions) are performance,
 *    not consistency, which is exactly the paper's claim.
 *  - "sc-drf-engine" (DD+SE): the same DRF axioms; atomics perform
 *    at the home L2 bank instead of a registered L1, which moves
 *    *where* the per-word total sync order is formed but changes
 *    neither visibility nor ordering. The distinct name keeps
 *    reports honest about which column was checked.
 *  - "hrf-scoped" (GH, DH): HRF-Indirect. Scope annotations are
 *    effective: a release at scope s publishes itself and all
 *    program-order-earlier writes of its thread at tier s only
 *    (CU / device / machine), and release->acquire edges exist only
 *    where the publication tier covers the acquirer. Both HRF
 *    columns share the model — on GH an unpublished write sits in a
 *    writethrough L1 the flat directory never asks, on DH it sits
 *    unregistered behind a local fence; either way the axioms say
 *    "not visible beyond the CU".
 *
 * The checker additionally evaluates every model against the
 * FastTrack-style scoped happens-before axioms (CU/device/global
 * publication tiers plus the as-if-all-sync-were-global DRF shadow)
 * to produce the static race / scope-race verdict that is
 * cross-validated against the dynamic detector.
 */

#ifndef AXIOM_MODEL_HH
#define AXIOM_MODEL_HH

#include <string>

#include "coherence/protocol.hh"

namespace nosync
{
namespace axiom
{

/** One declarative consistency model (see file comment). */
struct AxiomModel
{
    /** Model name carried into reports ("sc-drf", "hrf-scoped", ...). */
    std::string name;

    /**
     * Scope annotations are effective (HRF). False folds every
     * annotation to Global before any other axiom applies — the
     * scope-free DRF contract.
     */
    bool scoped = false;

    /**
     * Number of devices in the machine being modeled. On a single
     * device the Device tier folds into Global, mirroring
     * analysis::RaceDetector's reach rules bit for bit.
     */
    unsigned devices = 1;
};

/** The axiom set for @p proto on a @p devices -device machine. */
inline AxiomModel
modelFor(const ProtocolConfig &proto, unsigned devices = 1)
{
    AxiomModel model;
    model.devices = devices;
    if (proto.consistency() == ConsistencyModel::Hrf) {
        model.name = "hrf-scoped";
        model.scoped = true;
    } else if (proto.syncEngine()) {
        model.name = "sc-drf-engine";
    } else {
        model.name = "sc-drf";
    }
    return model;
}

/** Effective scope of an annotation under @p model (DRF folds all). */
inline Scope
effectiveScope(const AxiomModel &model, Scope annotated)
{
    return model.scoped ? annotated : Scope::Global;
}

} // namespace axiom
} // namespace nosync

#endif // AXIOM_MODEL_HH
