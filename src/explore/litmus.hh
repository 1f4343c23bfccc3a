/**
 * @file
 * Litmus programs for the stateless model checker.
 *
 * A litmus program is an axiom::Program, and nothing else: the DPOR
 * explorer runs it operationally by interpreting each thread's
 * operation list on a simulated thread block, and the axiomatic
 * checker (src/axiom/) evaluates the very same list statically. The
 * two checkers share the program and nothing more, which is what
 * makes their agreement a cross-validation.
 *
 * Programs are spin-free: a spinning consumer makes the schedule
 * space unbounded (every extra poll is a new interleaving), so the
 * classic shapes are recast with guarded reads — e.g. message passing
 * reads the data word only when the flag acquire actually observed
 * the publication.
 *
 * Beside the program, a LitmusSpec row carries the register names the
 * outcome string prints, the hand-written allowed-outcome predicate
 * (the explorer's independent oracle; never derived from the checker)
 * and whether HRF configurations must flag a scope race (the
 * mis-scoped message-passing program does).
 */

#ifndef EXPLORE_LITMUS_HH
#define EXPLORE_LITMUS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "axiom/program.hh"
#include "gpu/workload.hh"

namespace nosync
{
namespace explore
{

/** One litmus program and its verdict oracle. */
struct LitmusSpec
{
    axiom::Program program;

    /** Outcome-string name of each register, e.g. "f", "d". */
    std::vector<std::string> regNames;

    /** Whether an outcome is permitted under a configuration. */
    bool (*allowed)(const std::string &outcome,
                    const ProtocolConfig &proto) = nullptr;

    /** Every schedule must flag a scope race on HRF configurations. */
    bool hrfScopeRace = false;
};

/**
 * A LitmusSpec as a Workload. Thread t of the program runs as thread
 * block t, one per CU. Each variable and each register gets its own
 * cache line; after its operations a thread stores every register it
 * wrote into that register's line (single writer, read back post-run
 * via debugRead, so the results themselves never race).
 */
class LitmusWorkload final : public Workload
{
  public:
    explicit LitmusWorkload(LitmusSpec spec);

    std::string name() const override { return _spec.program.name; }
    void init(WorkloadEnv &env) override;
    SimTask tbMain(TbContext &ctx) override;

    KernelInfo
    kernelInfo(unsigned) const override
    {
        return {static_cast<unsigned>(_spec.program.threads.size())};
    }

    /** Observed outcome of a completed run, e.g. "f=1 d=41". */
    std::string outcome(WorkloadEnv &env) const;

    /** Whether @p outcome is permitted under @p proto. */
    bool
    allowed(const std::string &outcome,
            const ProtocolConfig &proto) const
    {
        return _spec.allowed(outcome, proto);
    }

    /** Whether every schedule must flag a scope race under @p proto. */
    bool
    expectScopeRace(const ProtocolConfig &proto) const
    {
        return _spec.hrfScopeRace &&
               proto.consistency() == ConsistencyModel::Hrf;
    }

    /** The program both checkers run. */
    const axiom::Program &axiomProgram() const { return _spec.program; }

    /**
     * Render a final register state as "name=value" pairs in register
     * order. A register written by a guarded operation is printed
     * only when its guard holds (mp prints "f=0", not "f=0 d=0").
     */
    std::string
    formatOutcome(const std::vector<std::uint32_t> &regs) const;

  private:
    LitmusSpec _spec;
    std::vector<Addr> _vars;
    std::vector<Addr> _regs;
};

/** Names of the litmus suite, in canonical order. */
const std::vector<std::string> &litmusSuite();

/** Build the named program; nullptr if @p name is unknown. */
std::unique_ptr<LitmusWorkload> makeLitmus(const std::string &name);

} // namespace explore
} // namespace nosync

#endif // EXPLORE_LITMUS_HH
