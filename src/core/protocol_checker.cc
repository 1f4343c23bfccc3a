#include "core/protocol_checker.hh"

#include <algorithm>
#include <span>
#include <sstream>
#include <vector>

#include "core/system.hh"

namespace nosync
{

namespace
{

std::string
hexWord(Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

} // namespace

std::vector<std::string>
ProtocolChecker::sweepRacy() const
{
    return sweep(false);
}

std::vector<std::string>
ProtocolChecker::sweepQuiesced() const
{
    return sweep(true);
}

std::vector<std::string>
ProtocolChecker::sweep(bool quiesced) const
{
    std::vector<std::string> out;
    unsigned num_cus = _sys.config().numCus();
    unsigned num_nodes = _sys.mesh().numNodes();

    auto collect = [&](const std::vector<std::string> &v) {
        out.insert(out.end(), v.begin(), v.end());
    };

    // Per-controller internal consistency (plus leak detection when
    // quiesced). The sweep is protocol-agnostic: it walks the uniform
    // l1()/l2Bank() interfaces and only downcasts (as<T>) for the
    // ownership cross-checks that exist solely under DeNovo.
    for (unsigned cu = 0; cu < num_cus; ++cu)
        collect(_sys.l1(cu).checkInvariants(quiesced));
    for (unsigned bank = 0; bank < num_nodes; ++bank)
        collect(_sys.l2Bank(bank).checkInvariants(quiesced));

    if (as<DenovoL1Cache>(_sys.l1(0)) == nullptr)
        return out; // GPU protocol: no ownership state to cross-check.

    // At most one L1 holds any word Registered, at every tick: on an
    // ownership transfer the old owner downgrades before the transfer
    // message is even sent. The owner list holds one (word, cu) entry
    // per registered word, filled in ascending cu order; the stable
    // sort by word keeps that order within each word's run.
    struct Owner
    {
        Addr addr;
        unsigned cu;
    };
    std::vector<Owner> owners;
    for (unsigned cu = 0; cu < num_cus; ++cu) {
        as<DenovoL1Cache>(_sys.l1(cu))->forEachRegisteredWord(
            [&](Addr addr) { owners.push_back({addr, cu}); });
    }
    std::stable_sort(owners.begin(), owners.end(),
                     [](const Owner &a, const Owner &b) {
                         return a.addr < b.addr;
                     });
    // Calls fn(addr, run) once per registered word, in ascending
    // address order, with the run of that word's owners.
    auto forEachOwnedWord = [&owners](auto &&fn) {
        for (std::size_t i = 0; i < owners.size();) {
            std::size_t end = i + 1;
            while (end < owners.size() &&
                   owners[end].addr == owners[i].addr)
                ++end;
            fn(owners[i].addr,
               std::span<const Owner>(&owners[i], end - i));
            i = end;
        }
    };
    forEachOwnedWord([&](Addr addr, std::span<const Owner> run) {
        if (run.size() > 1) {
            std::ostringstream os;
            os << "word " << hexWord(addr) << " registered in "
               << run.size() << " L1s simultaneously (cus:";
            for (const Owner &owner : run)
                os << " " << owner.cu;
            os << ")";
            out.push_back(os.str());
        }
        // Registration means the word was written. A read-only-region
        // word is exempt from acquire-time self-invalidation in every
        // L1 (DD+RO), so writing one would leave permanently stale
        // copies behind: the region contract forbids it.
        if (_sys.regions().isReadOnly(addr)) {
            out.push_back("word " + hexWord(addr) +
                          " registered (written) despite lying in the "
                          "declared read-only region");
        }
        // Streaming regions (DD+PR) bypass registration entirely: a
        // registered word there means an owned store or sync access
        // targeted a region the program declared streaming.
        if (_sys.config().protocol.perRegionPolicy() &&
            _sys.regions().isStreaming(addr)) {
            out.push_back("word " + hexWord(addr) +
                          " registered despite lying in a declared "
                          "streaming region (DD+PR)");
        }
    });

    if (!quiesced)
        return out;

    // The remaining invariants only hold with no traffic in flight:
    // mid-run, the registry records a new owner before that L1's
    // registration completes, and stale Valid copies persist until the
    // (lazy) self-invalidation on the reader's next acquire.

    // L1 ownership and the L2 registry agree exactly. The registry
    // names owners by mesh node id, so cross-checking against a CU's
    // L1 goes through the topology's cu<->node map.
    const MachineTopology &topo = _sys.config().topology;
    forEachOwnedWord([&](Addr addr, std::span<const Owner> run) {
        unsigned bank =
            static_cast<unsigned>(lineHome(addr, num_nodes));
        NodeId reg_owner =
            as<DenovoL2Bank>(_sys.l2Bank(bank))->ownerOf(addr);
        unsigned cu = run.front().cu;
        if (reg_owner != topo.nodeOfCu(cu)) {
            std::ostringstream os;
            os << "word " << hexWord(addr) << " registered in L1 of cu "
               << cu << " (node " << topo.nodeOfCu(cu)
               << ") but the registry names node " << reg_owner;
            out.push_back(os.str());
        }
    });
    for (unsigned bank = 0; bank < num_nodes; ++bank) {
        as<DenovoL2Bank>(_sys.l2Bank(bank))
            ->forEachRegisteredWord([&](Addr addr, NodeId owner) {
                int cu = owner >= 0 ? topo.cuOfNode(owner) : -1;
                if (cu >= 0 && static_cast<unsigned>(cu) < num_cus &&
                    as<DenovoL1Cache>(
                        _sys.l1(static_cast<unsigned>(cu)))
                        ->ownsWord(addr)) {
                    return;
                }
                std::ostringstream os;
                os << "registry entry: word " << hexWord(addr)
                   << " owned by node " << owner
                   << " but that L1 does not hold it registered";
                out.push_back(os.str());
            });
    }

    // Note there is deliberately no "no other L1 holds the word
    // Valid" check: DeNovo never invalidates remote copies. A reader's
    // stale Valid copy legitimately persists until that reader's next
    // acquire sweeps it (lazily, via the epoch mechanism), and DRF
    // guarantees no read happens before such an acquire. Only copies
    // exempt from the sweep (registered elsewhere, or read-only
    // region) can go permanently stale, and both are checked above.

    return out;
}

std::vector<std::string>
ProtocolChecker::compareMemory(System &test, System &golden)
{
    std::vector<std::string> out;
    Addr top = std::min(test.allocTop(), golden.allocTop());
    std::size_t mismatches = 0;
    for (Addr addr = System::kAllocBase; addr < top;
         addr += kWordBytes) {
        std::uint32_t got = test.debugRead(addr);
        std::uint32_t want = golden.debugRead(addr);
        if (got == want)
            continue;
        if (++mismatches <= 10) {
            std::ostringstream os;
            os << "memory mismatch at " << hexWord(addr) << ": got "
               << got << ", golden run has " << want;
            out.push_back(os.str());
        }
    }
    if (mismatches > 10) {
        out.push_back("... and " + std::to_string(mismatches - 10) +
                      " more memory mismatches");
    }
    return out;
}

} // namespace nosync
