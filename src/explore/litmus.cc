#include "explore/litmus.hh"

#include <sstream>
#include <utility>

namespace nosync
{
namespace explore
{
namespace
{

/**
 * Cycles a Delay op waits. It dominates every bounded perturbation
 * the explorer can apply, so the temporal order around it is fixed.
 */
constexpr Cycles kDelayCycles = 50000;

/**
 * Message-passing programs (mp, mp_dev, misscoped) share one static
 * shape: var 0 is the data word, var 1 the flag; register 0 receives
 * the flag value, register 1 the data value. Only the release scope,
 * the consumer's guard, and the consumer delay differ.
 */
axiom::Program
mpShape(const char *name, Scope release_scope, bool guarded,
        bool consumer_delay)
{
    axiom::Program prog;
    prog.name = name;
    prog.numVars = 2;
    prog.numRegs = 2;
    prog.varNames = {"data", "flag"};

    axiom::Thread producer;
    producer.ops = {axiom::store(0, 41),
                    axiom::atomicStore(1, 1, release_scope)};

    axiom::Thread consumer;
    if (consumer_delay)
        consumer.ops.push_back(axiom::delay());
    consumer.ops.push_back(axiom::atomicLoad(1, Scope::Global, 0));
    axiom::Op data_read = axiom::load(0, 1);
    if (guarded)
        data_read = axiom::onlyIf(data_read, 0, 1);
    consumer.ops.push_back(data_read);

    prog.threads = {producer, consumer};
    return prog;
}

/** Two-variable shape shared by sb and lb: regs r0 (TB0), r1 (TB1). */
axiom::Program
xyShape(const char *name, bool load_first)
{
    axiom::Program prog;
    prog.name = name;
    prog.numVars = 2;
    prog.numRegs = 2;
    prog.varNames = {"x", "y"};
    for (unsigned t = 0; t < 2; ++t) {
        unsigned mine = t == 0 ? 0u : 1u;
        unsigned other = 1u - mine;
        axiom::Thread thread;
        axiom::Op st = axiom::atomicStore(mine, 1, Scope::Global);
        axiom::Op ld = axiom::atomicLoad(other, Scope::Global,
                                         static_cast<int>(t));
        if (load_first)
            thread.ops = {ld, st};
        else
            thread.ops = {st, ld};
        prog.threads.push_back(thread);
    }
    return prog;
}

/** Two writers, two readers reading x, y in opposite orders. */
axiom::Program
iriwShape()
{
    axiom::Program prog;
    prog.name = "iriw";
    prog.numVars = 2;
    prog.numRegs = 4;
    prog.varNames = {"x", "y"};
    axiom::Thread wx, wy, rxy, ryx;
    wx.ops = {axiom::atomicStore(0, 1, Scope::Global)};
    wy.ops = {axiom::atomicStore(1, 1, Scope::Global)};
    rxy.ops = {axiom::atomicLoad(0, Scope::Global, 0),
               axiom::atomicLoad(1, Scope::Global, 1)};
    ryx.ops = {axiom::atomicLoad(1, Scope::Global, 2),
               axiom::atomicLoad(0, Scope::Global, 3)};
    prog.threads = {wx, wy, rxy, ryx};
    return prog;
}

/**
 * The suite table, in canonical order.
 *
 * - mp: producer stores data then releases a flag; consumer acquires
 *   the flag and reads the data only if it observed the flag set.
 *   The acquire orders the data read after the store under every
 *   studied configuration, so "f=1 d=0" is forbidden; "f=0" (the
 *   acquire lost the race to the release) is always allowed.
 * - mp_dev: mp with both sync ops annotated Scope::Device. The
 *   litmus machine has one device, so Device folds into Global
 *   everywhere and the outcomes are mp's, but it drives the Device
 *   branch of the dynamic detector's reach rules and the checker's
 *   publication axiom. (The genuinely multi-device behavior is
 *   exercised statically in tests/test_axiom.cc.)
 * - sb: each TB stores its own variable then loads the other's.
 *   Atomics perform in program order at each word's coherence point,
 *   which makes them sequentially consistent here: both loads
 *   observing the initial value is forbidden.
 * - lb: each TB loads the other's variable then stores its own. Both
 *   loads observing the other's later store needs a causality cycle.
 * - iriw: the readers disagreeing on the write order is forbidden;
 *   per-word coherence points give the atomic stores one order.
 * - misscoped (the examples/misscoped_race.cpp shape): the producer
 *   releases the flag with Local scope, but the consumer acquires
 *   globally from another CU after a Delay. On HRF configurations
 *   the local release stops at the producer's L1: every schedule
 *   must flag a scope race and any outcome is permitted (on GH even
 *   the flag may never reach the L2). On DRF configurations every
 *   sync is globally effective and only the clean outcome is
 *   allowed. The data read is unguarded: what varies across
 *   configurations is visibility alone.
 */
const std::vector<LitmusSpec> &
suiteTable()
{
    static const std::vector<LitmusSpec> table = [] {
        auto mp_allowed = [](const std::string &outcome,
                             const ProtocolConfig &) {
            return outcome == "f=0" || outcome == "f=1 d=41";
        };
        axiom::Program mp_dev =
            mpShape("mp_dev", Scope::Device, true, false);
        mp_dev.threads[1].ops[0].scope = Scope::Device;
        return std::vector<LitmusSpec>{
            {mpShape("mp", Scope::Global, true, false),
             {"f", "d"},
             mp_allowed},
            {mp_dev, {"f", "d"}, mp_allowed},
            {xyShape("sb", false),
             {"r0", "r1"},
             [](const std::string &outcome, const ProtocolConfig &) {
                 return outcome != "r0=0 r1=0";
             }},
            {xyShape("lb", true),
             {"r0", "r1"},
             [](const std::string &outcome, const ProtocolConfig &) {
                 return outcome != "r0=1 r1=1";
             }},
            {iriwShape(),
             {"a", "b", "c", "d"},
             [](const std::string &outcome, const ProtocolConfig &) {
                 return outcome != "a=1 b=0 c=1 d=0";
             }},
            {mpShape("misscoped", Scope::Local, false, true),
             {"f", "d"},
             [](const std::string &outcome,
                const ProtocolConfig &proto) {
                 if (proto.consistency() == ConsistencyModel::Hrf) {
                     // Racy program: any combination of stale/fresh
                     // values.
                     return outcome == "f=0 d=0" ||
                            outcome == "f=0 d=41" ||
                            outcome == "f=1 d=0" ||
                            outcome == "f=1 d=41";
                 }
                 return outcome == "f=1 d=41";
             },
             true},
        };
    }();
    return table;
}

} // namespace

LitmusWorkload::LitmusWorkload(LitmusSpec spec) : _spec(std::move(spec))
{
}

void
LitmusWorkload::init(WorkloadEnv &env)
{
    _vars.resize(_spec.program.numVars);
    _regs.resize(_spec.program.numRegs);
    for (Addr &var : _vars)
        var = env.alloc(kLineBytes);
    for (Addr &reg : _regs)
        reg = env.alloc(kLineBytes);
}

SimTask
LitmusWorkload::tbMain(TbContext &ctx)
{
    const axiom::Thread &thread =
        _spec.program.threads[ctx.tbGlobal()];
    std::vector<std::uint32_t> regs(_spec.program.numRegs, 0);
    std::vector<bool> mine(_spec.program.numRegs, false);
    for (const axiom::Op &op : thread.ops)
        if (op.dest != axiom::kNoReg)
            mine[op.dest] = true;
    for (const axiom::Op &op : thread.ops) {
        if (op.guardReg != axiom::kNoReg &&
            regs[op.guardReg] != op.guardValue)
            continue;
        Addr addr = _vars[op.var];
        std::uint32_t value = 0;
        switch (op.kind) {
          case axiom::Op::Kind::Load:
            value = co_await ctx.load(addr);
            break;
          case axiom::Op::Kind::Store:
            co_await ctx.store(addr, op.value);
            break;
          case axiom::Op::Kind::AtomicLoad:
            value = co_await ctx.atomic(ctx.atomicLoad(addr, op.scope));
            break;
          case axiom::Op::Kind::AtomicStore:
            co_await ctx.atomic(
                ctx.atomicStore(addr, op.value, op.scope));
            break;
          case axiom::Op::Kind::AtomicRmw:
            value = co_await ctx.atomic(
                ctx.fetchAdd(addr, op.value, op.scope));
            break;
          case axiom::Op::Kind::Delay:
            co_await ctx.wait(kDelayCycles);
            break;
        }
        if (op.dest != axiom::kNoReg)
            regs[op.dest] = value;
    }
    // Publish every register this thread is the dest of, in register
    // order; one a guard skipped publishes its initial 0.
    for (unsigned r = 0; r < _spec.program.numRegs; ++r)
        if (mine[r])
            co_await ctx.store(_regs[r], regs[r]);
}

std::string
LitmusWorkload::outcome(WorkloadEnv &env) const
{
    std::vector<std::uint32_t> regs;
    regs.reserve(_regs.size());
    for (Addr reg : _regs)
        regs.push_back(env.debugRead(reg));
    return formatOutcome(regs);
}

std::string
LitmusWorkload::formatOutcome(
    const std::vector<std::uint32_t> &regs) const
{
    std::vector<bool> shown(regs.size(), true);
    for (const axiom::Thread &thread : _spec.program.threads)
        for (const axiom::Op &op : thread.ops)
            if (op.dest != axiom::kNoReg &&
                op.guardReg != axiom::kNoReg &&
                regs[op.guardReg] != op.guardValue)
                shown[op.dest] = false;
    std::ostringstream os;
    const char *sep = "";
    for (unsigned r = 0; r < regs.size(); ++r) {
        if (!shown[r])
            continue;
        os << sep << _spec.regNames[r] << "=" << regs[r];
        sep = " ";
    }
    return os.str();
}

const std::vector<std::string> &
litmusSuite()
{
    static const std::vector<std::string> suite = [] {
        std::vector<std::string> names;
        names.reserve(suiteTable().size());
        for (const LitmusSpec &spec : suiteTable())
            names.push_back(spec.program.name);
        return names;
    }();
    return suite;
}

std::unique_ptr<LitmusWorkload>
makeLitmus(const std::string &name)
{
    for (const LitmusSpec &spec : suiteTable())
        if (spec.program.name == name)
            return std::make_unique<LitmusWorkload>(spec);
    return nullptr;
}

} // namespace explore
} // namespace nosync
