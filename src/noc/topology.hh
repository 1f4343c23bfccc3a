/**
 * @file
 * Machine topology: how many devices the machine has, the mesh
 * geometry each device replicates, and the inter-device link class
 * that joins them.
 *
 * A machine is a forest of identical WxH meshes (one per device)
 * plus a fully-connected set of inter-device links between the
 * devices' gateway nodes. Node ids are global and device-major:
 * device d owns nodes [d * nodesPerDevice(), (d+1) * nodesPerDevice()),
 * and within a device the local layout is exactly the single-device
 * mesh layout (CUs first, CPU/gateway node last). A one-device
 * machine is byte-for-byte the classic single-mesh system.
 */

#ifndef NOC_TOPOLOGY_HH
#define NOC_TOPOLOGY_HH

#include "sim/types.hh"

namespace nosync
{

/** Latency (cycles) of a message a node sends to itself: its own
 *  L2 slice, with no link crossed. */
constexpr Cycles kLocalLatency = 1;

/** Timing/size parameters of one device's mesh. */
struct MeshParams
{
    unsigned width = 4;
    unsigned height = 4;
    /** Per-hop router+link pipeline latency (cycles). */
    Cycles hopLatency = 3;
};

/**
 * The inter-device link class (NVLink/PCIe-style): higher latency and
 * lower per-flit bandwidth than an on-die mesh hop. Each ordered
 * device pair owns one unidirectional link; messages serialize onto
 * it in send order (FIFO per pair), exactly like a mesh link.
 */
struct InterDeviceLinkParams
{
    /** One-way link traversal latency (cycles). */
    Cycles latency = 24;
    /** Cycles each flit occupies the link (mesh links take 1). */
    Cycles cyclesPerFlit = 4;
};

/** Devices x per-device mesh geometry + inter-device link class. */
struct MachineTopology
{
    /** Number of devices; 1 reproduces the classic single machine. */
    unsigned devices = 1;

    /** Geometry replicated by every device. */
    MeshParams mesh{};

    /**
     * GPU compute units per device, at local nodes 0..cusPerDevice-1;
     * the last local node is the device's CPU core, which doubles as
     * the gateway the inter-device link attaches to.
     */
    unsigned cusPerDevice = 15;

    /** Inter-device link class (unused when devices == 1). */
    InterDeviceLinkParams link{};

    /** A single-device topology around an existing mesh geometry. */
    MachineTopology() = default;
    MachineTopology(const MeshParams &mesh_params) // NOLINT(google-explicit-constructor)
        : mesh(mesh_params)
    {
    }

    unsigned nodesPerDevice() const { return mesh.width * mesh.height; }
    unsigned numNodes() const { return devices * nodesPerDevice(); }
    unsigned totalCus() const { return devices * cusPerDevice; }

    /** Device owning global node @p node. */
    unsigned
    deviceOf(NodeId node) const
    {
        return static_cast<unsigned>(node) / nodesPerDevice();
    }

    /** Global node id of device @p d's gateway (its CPU node). */
    NodeId
    gatewayNode(unsigned d) const
    {
        return static_cast<NodeId>((d + 1) * nodesPerDevice() - 1);
    }

    /** Global mesh node hosting global CU @p cu's L1. */
    NodeId
    nodeOfCu(unsigned cu) const
    {
        unsigned d = cu / cusPerDevice;
        return static_cast<NodeId>(d * nodesPerDevice() +
                                   cu % cusPerDevice);
    }

    /** Device owning global CU @p cu. */
    unsigned deviceOfCu(unsigned cu) const { return cu / cusPerDevice; }

    /** Global CU whose L1 sits at node @p node, or -1 for a node
     *  hosting no CU (the gateway/CPU node of each device). */
    int
    cuOfNode(NodeId node) const
    {
        unsigned local = static_cast<unsigned>(node) % nodesPerDevice();
        if (local >= cusPerDevice)
            return -1;
        return static_cast<int>(deviceOf(node) * cusPerDevice + local);
    }
};

} // namespace nosync

#endif // NOC_TOPOLOGY_HH
