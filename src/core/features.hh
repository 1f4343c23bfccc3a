/**
 * @file
 * Qualitative protocol feature traits (Tables 1, 2, and 5).
 *
 * These are derived from the protocol definitions, not measured: they
 * encode which mechanisms each configuration possesses, and the
 * `bench/tables` harness renders them in the paper's table shapes.
 */

#ifndef CORE_FEATURES_HH
#define CORE_FEATURES_HH

#include <string>
#include <vector>

#include "coherence/protocol.hh"

namespace nosync
{

/** Table 2 feature rows. */
struct FeatureSet
{
    /** Yes / no / conditional ("if local scope"). */
    enum class Support
    {
        No,
        Yes,
        IfLocalScope,
    };

    Support reuseWrittenData;
    Support reuseValidData;
    Support noBurstyTraffic;
    Support noInvalidationsAcks;
    Support decoupledGranularity;
    Support reuseSynchronization;
    Support dynamicSharing;
};

/** Feature set of one of the studied configurations (Table 2). */
inline FeatureSet
featuresOf(const ProtocolConfig &config)
{
    using S = FeatureSet::Support;
    bool hrf = config.consistency() == ConsistencyModel::Hrf;
    if (config.protocol() == CoherenceProtocol::Gpu) {
        if (!hrf) {
            return {S::No, S::No, S::No, S::Yes, S::No, S::No, S::No};
        }
        return {S::IfLocalScope, S::IfLocalScope, S::IfLocalScope,
                S::Yes, S::No, S::IfLocalScope, S::No};
    }
    // DeNovo: ownership gives written-data and sync reuse and
    // decoupled transfer granularity regardless of the model. The
    // read-only enhancement mitigates valid-data reuse under DRF.
    S valid_reuse = hrf ? S::IfLocalScope
                        : (config.readOnlyRegions() ? S::IfLocalScope
                                                    : S::No);
    return {S::Yes, valid_reuse, S::Yes, S::Yes, S::Yes, S::Yes,
            S::Yes};
}

/** Table 1: protocol-classification row. */
struct ProtocolClass
{
    std::string category;   ///< Conv HW / SW / Hybrid
    std::string example;    ///< MESI / GPU / DeNovo
    std::string invalidationInitiator;
    std::string upToDateTracking;
    bool supportsScopes;
};

inline std::vector<ProtocolClass>
protocolClassification()
{
    return {
        {"Conv HW", "MESI", "writer", "ownership", true},
        {"SW", "GPU", "reader", "writethrough", true},
        {"Hybrid", "DeNovo", "reader", "ownership", true},
    };
}

/** Table 5: related-work comparison row. */
struct RelatedWorkRow
{
    std::string scheme;
    FeatureSet features;
};

inline std::vector<RelatedWorkRow>
relatedWorkComparison()
{
    using S = FeatureSet::Support;
    return {
        {"HSC", {S::Yes, S::Yes, S::Yes, S::No, S::No, S::No, S::Yes}},
        {"Stash/TC/FC",
         {S::Yes, S::No, S::Yes, S::Yes, S::No, S::No, S::No}},
        {"QuickRelease",
         {S::Yes, S::No, S::No, S::No, S::Yes, S::No, S::No}},
        {"RemoteScopes",
         {S::IfLocalScope, S::IfLocalScope, S::IfLocalScope, S::No,
          S::Yes, S::IfLocalScope, S::Yes}},
        {"DD (this work)",
         {S::Yes, S::No, S::Yes, S::Yes, S::Yes, S::Yes, S::Yes}},
    };
}

} // namespace nosync

#endif // CORE_FEATURES_HH
