/**
 * @file
 * Static litmus-program IR, shared by the axiomatic memory-model
 * checker and the DPOR explorer.
 *
 * A Program is the one definition of a litmus program: per-thread
 * operation lists over symbolic variables. The axiomatic checker
 * analyzes it without running a single simulated cycle, and
 * explore::LitmusWorkload runs the same lists on the simulator by
 * interpreting each op on a thread block. Reads land in
 * numbered registers; conditional behavior (message passing reads the
 * data word only when the flag acquire observed the publication) is a
 * guard naming the register and required value; a Delay is a phase
 * barrier (the mis-scoped program's long wait()). Every sync
 * operation carries its scope annotation — Local, Device, or Global —
 * which is what the per-configuration axiom sets interpret.
 *
 * Threads map onto the machine the way the simulator places litmus
 * thread blocks: thread i runs on CU i (round-robin assignment with
 * more CUs than threads), and CU c belongs to device c / cusPerDevice.
 * The default single-device geometry matches the explorer's machine;
 * multi-device geometries let the checker's device-scope axioms be
 * exercised purely statically.
 */

#ifndef AXIOM_PROGRAM_HH
#define AXIOM_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "coherence/protocol.hh"

namespace nosync
{
namespace axiom
{

/** Register index marking "no destination / no guard". */
constexpr int kNoReg = -1;

/** One static memory (or phase-barrier) operation. */
struct Op
{
    enum class Kind : std::uint8_t
    {
        Load,        ///< plain data read
        Store,       ///< plain data write
        AtomicLoad,  ///< sync read (acquire)
        AtomicStore, ///< sync write (release)
        AtomicRmw,   ///< sync fetch-add (acquire-release)
        Delay,       ///< phase barrier (runs as a long wait())
    };

    Kind kind = Kind::Load;
    unsigned var = 0;          ///< symbolic variable index
    std::uint32_t value = 0;   ///< stores: value written; rmw: addend
    Scope scope = Scope::Global; ///< sync ops: scope annotation
    int dest = kNoReg;         ///< reads/rmw: register receiving value
    int guardReg = kNoReg;     ///< execute only if regs[guardReg]...
    std::uint32_t guardValue = 0; ///< ...equals this value

    bool
    isWrite() const
    {
        return kind == Kind::Store || kind == Kind::AtomicStore ||
               kind == Kind::AtomicRmw;
    }

    bool
    isSync() const
    {
        return kind == Kind::AtomicLoad ||
               kind == Kind::AtomicStore || kind == Kind::AtomicRmw;
    }

    bool
    isAcquire() const
    {
        return kind == Kind::AtomicLoad || kind == Kind::AtomicRmw;
    }

    bool
    isRelease() const
    {
        return kind == Kind::AtomicStore || kind == Kind::AtomicRmw;
    }
};

/** Convenience constructors keeping the program tables readable. */
inline Op
load(unsigned var, int dest)
{
    Op op;
    op.kind = Op::Kind::Load;
    op.var = var;
    op.dest = dest;
    return op;
}

inline Op
store(unsigned var, std::uint32_t value)
{
    Op op;
    op.kind = Op::Kind::Store;
    op.var = var;
    op.value = value;
    return op;
}

inline Op
atomicLoad(unsigned var, Scope scope, int dest)
{
    Op op;
    op.kind = Op::Kind::AtomicLoad;
    op.var = var;
    op.scope = scope;
    op.dest = dest;
    return op;
}

inline Op
atomicStore(unsigned var, std::uint32_t value, Scope scope)
{
    Op op;
    op.kind = Op::Kind::AtomicStore;
    op.var = var;
    op.value = value;
    op.scope = scope;
    return op;
}

inline Op
atomicRmw(unsigned var, std::uint32_t addend, Scope scope, int dest)
{
    Op op;
    op.kind = Op::Kind::AtomicRmw;
    op.var = var;
    op.value = addend;
    op.scope = scope;
    op.dest = dest;
    return op;
}

inline Op
delay()
{
    Op op;
    op.kind = Op::Kind::Delay;
    return op;
}

/** Guard @p op on a previously read register value. */
inline Op
onlyIf(Op op, int guard_reg, std::uint32_t guard_value)
{
    op.guardReg = guard_reg;
    op.guardValue = guard_value;
    return op;
}

/** One thread: its program-order operation list. */
struct Thread
{
    std::vector<Op> ops;
};

/** A complete static litmus program. */
struct Program
{
    std::string name;
    unsigned numVars = 0;
    unsigned numRegs = 0;
    std::vector<Thread> threads;
    std::vector<std::string> varNames; ///< for race descriptions

    /**
     * Machine geometry the threads are placed on. 0 cusPerDevice
     * means "each thread on its own CU of one device" — the
     * explorer's default machine as the litmus suite sees it.
     */
    unsigned cusPerDevice = 0;
    unsigned devices = 1;

    /** CU thread @p t runs on (round-robin, one TB per CU). */
    unsigned
    cuOf(unsigned t) const
    {
        return t;
    }

    /** Device thread @p t runs on. */
    unsigned
    deviceOf(unsigned t) const
    {
        if (cusPerDevice == 0 || devices <= 1)
            return 0;
        return (cuOf(t) / cusPerDevice) % devices;
    }

    const std::string &
    varName(unsigned var) const
    {
        static const std::string unknown = "?";
        return var < varNames.size() ? varNames[var] : unknown;
    }
};

} // namespace axiom
} // namespace nosync

#endif // AXIOM_PROGRAM_HH
