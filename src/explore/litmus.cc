#include "explore/litmus.hh"

#include <sstream>

namespace nosync
{
namespace explore
{
namespace
{

/**
 * Common scaffolding: every program allocates each shared variable on
 * its own cache line and parks per-TB observations in private result
 * words (single writer, read back post-run via debugRead — no
 * conflicting accesses, so the results themselves never race).
 */
std::string
kv(const char *k, std::uint32_t v)
{
    std::ostringstream os;
    os << k << "=" << v;
    return os.str();
}

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

/**
 * Message passing (MP): producer stores data then releases a flag;
 * consumer acquires the flag and reads the data only if the flag was
 * observed set. Under every studied configuration the acquire orders
 * the data read after the store, so "f=1 d=0" is forbidden; "f=0"
 * (the acquire lost the race to the release) is always allowed.
 */
class MpLitmus : public LitmusWorkload
{
  public:
    std::string name() const override { return "mp"; }

    void
    init(WorkloadEnv &env) override
    {
        _data = env.alloc(kLineBytes);
        _flag = env.alloc(kLineBytes);
        _rf = env.alloc(kLineBytes);
        _rd = env.alloc(kLineBytes);
    }

    KernelInfo kernelInfo(unsigned) const override { return {2}; }

    SimTask
    tbMain(TbContext &ctx) override
    {
        if (ctx.tbGlobal() == 0) {
            co_await ctx.store(_data, 41);
            co_await ctx.atomic(
                ctx.atomicStore(_flag, 1, Scope::Global));
            co_return;
        }
        std::uint32_t f = co_await ctx.atomic(
            ctx.atomicLoad(_flag, Scope::Global));
        std::uint32_t d = 0;
        if (f == 1)
            d = co_await ctx.load(_data);
        co_await ctx.store(_rf, f);
        co_await ctx.store(_rd, d);
    }

    std::string
    outcome(WorkloadEnv &env) override
    {
        std::uint32_t f = env.debugRead(_rf);
        if (f == 0)
            return "f=0";
        return kv("f", f) + " " + kv("d", env.debugRead(_rd));
    }

    bool
    allowed(const std::string &outcome,
            const ProtocolConfig &) const override
    {
        return outcome == "f=0" || outcome == "f=1 d=41";
    }

    axiom::Program
    axiomProgram() const override
    {
        return mpShape("mp", Scope::Global, true, false);
    }

    std::string
    formatOutcome(
        const std::vector<std::uint32_t> &regs) const override
    {
        if (regs[0] == 0)
            return "f=0";
        return kv("f", regs[0]) + " " + kv("d", regs[1]);
    }

  private:
    Addr _data = 0, _flag = 0, _rf = 0, _rd = 0;
};

/**
 * Device-scoped message passing (mp_dev): the mp shape with the
 * release annotated Scope::Device. The litmus machine has one device,
 * so the Device tier folds into Global under every configuration —
 * the program is as well-synchronized as mp and allows the same
 * outcomes — but it drives the Device branch of both the dynamic
 * detector's reach rules and the checker's publication axiom. (The
 * genuinely multi-device Device-scope behavior is exercised purely
 * statically in tests/test_axiom.cc, where a 2-device geometry makes
 * the same release invisible across the link.)
 */
class MpDevLitmus : public LitmusWorkload
{
  public:
    std::string name() const override { return "mp_dev"; }

    void
    init(WorkloadEnv &env) override
    {
        _data = env.alloc(kLineBytes);
        _flag = env.alloc(kLineBytes);
        _rf = env.alloc(kLineBytes);
        _rd = env.alloc(kLineBytes);
    }

    KernelInfo kernelInfo(unsigned) const override { return {2}; }

    SimTask
    tbMain(TbContext &ctx) override
    {
        if (ctx.tbGlobal() == 0) {
            co_await ctx.store(_data, 41);
            co_await ctx.atomic(
                ctx.atomicStore(_flag, 1, Scope::Device));
            co_return;
        }
        std::uint32_t f = co_await ctx.atomic(
            ctx.atomicLoad(_flag, Scope::Device));
        std::uint32_t d = 0;
        if (f == 1)
            d = co_await ctx.load(_data);
        co_await ctx.store(_rf, f);
        co_await ctx.store(_rd, d);
    }

    std::string
    outcome(WorkloadEnv &env) override
    {
        std::uint32_t f = env.debugRead(_rf);
        if (f == 0)
            return "f=0";
        return kv("f", f) + " " + kv("d", env.debugRead(_rd));
    }

    bool
    allowed(const std::string &outcome,
            const ProtocolConfig &) const override
    {
        return outcome == "f=0" || outcome == "f=1 d=41";
    }

    axiom::Program
    axiomProgram() const override
    {
        axiom::Program prog =
            mpShape("mp_dev", Scope::Device, true, false);
        prog.threads[1].ops[0].scope = Scope::Device;
        return prog;
    }

    std::string
    formatOutcome(
        const std::vector<std::uint32_t> &regs) const override
    {
        if (regs[0] == 0)
            return "f=0";
        return kv("f", regs[0]) + " " + kv("d", regs[1]);
    }

  private:
    Addr _data = 0, _flag = 0, _rf = 0, _rd = 0;
};

/**
 * Store buffering (SB): each TB stores its own variable then loads
 * the other's. Atomics perform in program order at each word's
 * coherence point, which makes them sequentially consistent in this
 * simulator — both loads observing the initial value is forbidden.
 */
class SbLitmus : public LitmusWorkload
{
  public:
    std::string name() const override { return "sb"; }

    void
    init(WorkloadEnv &env) override
    {
        _x = env.alloc(kLineBytes);
        _y = env.alloc(kLineBytes);
        _r0 = env.alloc(kLineBytes);
        _r1 = env.alloc(kLineBytes);
    }

    KernelInfo kernelInfo(unsigned) const override { return {2}; }

    SimTask
    tbMain(TbContext &ctx) override
    {
        bool first = ctx.tbGlobal() == 0;
        Addr mine = first ? _x : _y;
        Addr other = first ? _y : _x;
        co_await ctx.atomic(ctx.atomicStore(mine, 1, Scope::Global));
        std::uint32_t v = co_await ctx.atomic(
            ctx.atomicLoad(other, Scope::Global));
        co_await ctx.store(first ? _r0 : _r1, v);
    }

    std::string
    outcome(WorkloadEnv &env) override
    {
        return kv("r0", env.debugRead(_r0)) + " " +
               kv("r1", env.debugRead(_r1));
    }

    bool
    allowed(const std::string &outcome,
            const ProtocolConfig &) const override
    {
        return outcome != "r0=0 r1=0";
    }

    axiom::Program
    axiomProgram() const override
    {
        return xyShape("sb", false);
    }

    std::string
    formatOutcome(
        const std::vector<std::uint32_t> &regs) const override
    {
        return kv("r0", regs[0]) + " " + kv("r1", regs[1]);
    }

  private:
    Addr _x = 0, _y = 0, _r0 = 0, _r1 = 0;
};

/**
 * Load buffering (LB): each TB loads the other's variable then
 * stores its own. Both loads observing the other's (program-order
 * later) store would need a causality cycle — forbidden everywhere.
 */
class LbLitmus : public LitmusWorkload
{
  public:
    std::string name() const override { return "lb"; }

    void
    init(WorkloadEnv &env) override
    {
        _x = env.alloc(kLineBytes);
        _y = env.alloc(kLineBytes);
        _r0 = env.alloc(kLineBytes);
        _r1 = env.alloc(kLineBytes);
    }

    KernelInfo kernelInfo(unsigned) const override { return {2}; }

    SimTask
    tbMain(TbContext &ctx) override
    {
        bool first = ctx.tbGlobal() == 0;
        Addr mine = first ? _x : _y;
        Addr other = first ? _y : _x;
        std::uint32_t v = co_await ctx.atomic(
            ctx.atomicLoad(other, Scope::Global));
        co_await ctx.atomic(ctx.atomicStore(mine, 1, Scope::Global));
        co_await ctx.store(first ? _r0 : _r1, v);
    }

    std::string
    outcome(WorkloadEnv &env) override
    {
        return kv("r0", env.debugRead(_r0)) + " " +
               kv("r1", env.debugRead(_r1));
    }

    bool
    allowed(const std::string &outcome,
            const ProtocolConfig &) const override
    {
        return outcome != "r0=1 r1=1";
    }

    axiom::Program
    axiomProgram() const override
    {
        return xyShape("lb", true);
    }

    std::string
    formatOutcome(
        const std::vector<std::uint32_t> &regs) const override
    {
        return kv("r0", regs[0]) + " " + kv("r1", regs[1]);
    }

  private:
    Addr _x = 0, _y = 0, _r0 = 0, _r1 = 0;
};

/**
 * Independent reads of independent writes (IRIW): two writers, two
 * readers reading the two variables in opposite orders. The readers
 * disagreeing on the write order is forbidden — per-word coherence
 * points give the atomic stores a single global order.
 */
class IriwLitmus : public LitmusWorkload
{
  public:
    std::string name() const override { return "iriw"; }

    void
    init(WorkloadEnv &env) override
    {
        _x = env.alloc(kLineBytes);
        _y = env.alloc(kLineBytes);
        for (Addr &r : _r)
            r = env.alloc(kLineBytes);
    }

    KernelInfo kernelInfo(unsigned) const override { return {4}; }

    SimTask
    tbMain(TbContext &ctx) override
    {
        switch (ctx.tbGlobal()) {
          case 0:
            co_await ctx.atomic(
                ctx.atomicStore(_x, 1, Scope::Global));
            co_return;
          case 1:
            co_await ctx.atomic(
                ctx.atomicStore(_y, 1, Scope::Global));
            co_return;
          case 2: {
            std::uint32_t a = co_await ctx.atomic(
                ctx.atomicLoad(_x, Scope::Global));
            std::uint32_t b = co_await ctx.atomic(
                ctx.atomicLoad(_y, Scope::Global));
            co_await ctx.store(_r[0], a);
            co_await ctx.store(_r[1], b);
            co_return;
          }
          default: {
            std::uint32_t c = co_await ctx.atomic(
                ctx.atomicLoad(_y, Scope::Global));
            std::uint32_t d = co_await ctx.atomic(
                ctx.atomicLoad(_x, Scope::Global));
            co_await ctx.store(_r[2], c);
            co_await ctx.store(_r[3], d);
          }
        }
    }

    std::string
    outcome(WorkloadEnv &env) override
    {
        return kv("a", env.debugRead(_r[0])) + " " +
               kv("b", env.debugRead(_r[1])) + " " +
               kv("c", env.debugRead(_r[2])) + " " +
               kv("d", env.debugRead(_r[3]));
    }

    bool
    allowed(const std::string &outcome,
            const ProtocolConfig &) const override
    {
        return outcome != "a=1 b=0 c=1 d=0";
    }

    axiom::Program
    axiomProgram() const override
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

    std::string
    formatOutcome(
        const std::vector<std::uint32_t> &regs) const override
    {
        return kv("a", regs[0]) + " " + kv("b", regs[1]) + " " +
               kv("c", regs[2]) + " " + kv("d", regs[3]);
    }

  private:
    Addr _x = 0, _y = 0;
    Addr _r[4] = {0, 0, 0, 0};
};

/**
 * The examples/misscoped_race.cpp shape: the producer releases the
 * flag with *local* scope but the consumer acquires globally from
 * another CU. On HRF configurations (GH/DH) the local release stops
 * at the producer's L1 — every schedule must flag a scope race, and
 * any outcome is permitted (the program is racy by construction; on
 * GH even the flag value itself may never reach the L2). On DRF
 * configurations the same annotations are sound: every sync is
 * globally effective, the long consumer delay puts the publication
 * far in the past, and the only allowed outcome is the clean one.
 */
class MisscopedLitmus : public LitmusWorkload
{
  public:
    std::string name() const override { return "misscoped"; }

    void
    init(WorkloadEnv &env) override
    {
        _data = env.alloc(kLineBytes);
        _flag = env.alloc(kLineBytes);
        _rf = env.alloc(kLineBytes);
        _rd = env.alloc(kLineBytes);
    }

    KernelInfo kernelInfo(unsigned) const override { return {2}; }

    SimTask
    tbMain(TbContext &ctx) override
    {
        if (ctx.tbGlobal() == 0) {
            co_await ctx.store(_data, 41);
            // BUG: Scope::Local, but the consumer is on another CU.
            co_await ctx.atomic(
                ctx.atomicStore(_flag, 1, Scope::Local));
            co_return;
        }
        // The delay dominates every bounded perturbation the
        // explorer can apply, so the temporal order is fixed — what
        // varies across configurations is whether the local release
        // made the publication *visible* and *ordered*.
        co_await ctx.wait(50000);
        std::uint32_t f = co_await ctx.atomic(
            ctx.atomicLoad(_flag, Scope::Global));
        std::uint32_t d = co_await ctx.load(_data);
        co_await ctx.store(_rf, f);
        co_await ctx.store(_rd, d);
    }

    std::string
    outcome(WorkloadEnv &env) override
    {
        return kv("f", env.debugRead(_rf)) + " " +
               kv("d", env.debugRead(_rd));
    }

    bool
    allowed(const std::string &outcome,
            const ProtocolConfig &proto) const override
    {
        if (proto.consistency() == ConsistencyModel::Hrf) {
            // Racy program: any combination of stale/fresh values.
            return outcome == "f=0 d=0" || outcome == "f=0 d=41" ||
                   outcome == "f=1 d=0" || outcome == "f=1 d=41";
        }
        return outcome == "f=1 d=41";
    }

    bool
    expectScopeRace(const ProtocolConfig &proto) const override
    {
        return proto.consistency() == ConsistencyModel::Hrf;
    }

    axiom::Program
    axiomProgram() const override
    {
        // Unguarded data read behind a Delay phase barrier: the
        // consumer always reads both words after the producer is
        // done, so what varies across models is visibility alone.
        return mpShape("misscoped", Scope::Local, false, true);
    }

    std::string
    formatOutcome(
        const std::vector<std::uint32_t> &regs) const override
    {
        return kv("f", regs[0]) + " " + kv("d", regs[1]);
    }

  private:
    Addr _data = 0, _flag = 0, _rf = 0, _rd = 0;
};

} // namespace

const std::vector<std::string> &
litmusSuite()
{
    static const std::vector<std::string> suite = {
        "mp", "mp_dev", "sb", "lb", "iriw", "misscoped"};
    return suite;
}

std::unique_ptr<LitmusWorkload>
makeLitmus(const std::string &name)
{
    if (name == "mp")
        return std::make_unique<MpLitmus>();
    if (name == "mp_dev")
        return std::make_unique<MpDevLitmus>();
    if (name == "sb")
        return std::make_unique<SbLitmus>();
    if (name == "lb")
        return std::make_unique<LbLitmus>();
    if (name == "iriw")
        return std::make_unique<IriwLitmus>();
    if (name == "misscoped")
        return std::make_unique<MisscopedLitmus>();
    return nullptr;
}

} // namespace explore
} // namespace nosync
