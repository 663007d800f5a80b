/**
 * @file
 * Worker layout for deep control trees (paper §5, generalized).
 *
 * The original deployment model is two tiers: one rack worker per edge
 * (leaf-parent) node and one room worker for everything above. A deep
 * plan inserts aggregator tiers between them: each aggregator worker
 * owns one connected tree fragment per (feed, phase) tree, gathers the
 * per-class summaries of the stations directly below it, merges them
 * with the same associative reduction the monolithic allocator uses,
 * reports one summary for its top station upward, and splits its
 * received budget back down — so a room → row → rack → chassis tree of
 * depth 3–4 is just a chain of identical fragments.
 *
 * A plan is derived from the topology plus a list of *aggregation
 * levels*: heights above the edge level at which to cut the trees. A
 * node's height is 0 at an edge (leaf-parent) node and 1 + max child
 * height above; every node whose height equals an aggregation level
 * becomes the top *station* of an aggregator fragment. Cutting at
 * height levels keeps structurally parallel trees (the Table 4 center,
 * where rack i's CDU is the i-th CDU of every tree) aligned: the j-th
 * tier-k station of every tree lands on the same worker, exactly like
 * the leaf partitioning rule.
 *
 * Worker endpoints are numbered to stay wire-compatible with the
 * 2-level layout: leaf workers first (0..L-1, matching
 * DistributedControlPlane::partitionEdges order), then each aggregator
 * tier bottom-up, the root worker last. An empty level list reproduces
 * the 2-level layout verbatim (root == endpoint L).
 *
 * Every worker's parent is the owner of the nearest station strictly
 * above its own (the root worker when none) — uniform across trees, or
 * the plan is rejected as not structurally parallel. Unbalanced trees
 * may therefore skip tiers: a shallow branch's leaf worker can report
 * straight to the root.
 *
 * The deployable engines (rt::WorkerHost, rt::WorkerRuntime) run a plan
 * of any depth: each internal worker is one core::RoomWorker fragment,
 * built from topsOf() and boundariesOf(). core::DistributedControlPlane
 * runs only the 2-level plan, and takes just its root worker's fragment
 * from it.
 */

#ifndef CAPMAESTRO_CORE_TREE_PLAN_HH
#define CAPMAESTRO_CORE_TREE_PLAN_HH

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "topology/power_system.hh"

namespace capmaestro::core {

/** The worker tree a deep deployment runs: who owns which fragment. */
struct TreePlan
{
    /** Sentinel endpoint (the root worker's parent). */
    static constexpr std::uint32_t kNoWorker = 0xFFFFFFFFu;

    /** One worker and its place in the control tree. */
    struct Worker
    {
        std::uint32_t endpoint = 0;
        /** 0 = leaf (rack) tier; tiers() - 1 = the root worker. */
        std::uint32_t tier = 0;
        /** Endpoint of the parent worker; kNoWorker at the root. */
        std::uint32_t parent = kNoWorker;
        /** Child worker endpoints (empty at leaf workers). */
        std::vector<std::uint32_t> children;
        /**
         * tree -> station node this worker reports upward: its edge
         * node (leaf tier), its fragment top (aggregator tiers), or
         * the tree root (root worker). Trees this worker holds no
         * fragment of are absent.
         */
        std::map<std::size_t, topo::NodeId> stations;

        bool isLeaf() const { return tier == 0; }
        bool isRoot() const { return parent == kNoWorker; }
    };

    /** All workers, indexed by endpoint; the root worker is last. */
    std::vector<Worker> workers;
    /** Leaf (rack) workers — endpoints 0..leafWorkers-1. */
    std::size_t leafWorkers = 0;
    /** Number of trees in the system the plan was built from. */
    std::size_t trees = 0;
    /** The aggregation levels the plan was built with (ascending). */
    std::vector<std::uint32_t> aggLevels;

    /** Worker tiers: leaf tier + aggregator tiers + root. */
    std::uint32_t tiers() const
    {
        return static_cast<std::uint32_t>(aggLevels.size()) + 2;
    }

    std::uint32_t rootEndpoint() const
    {
        return static_cast<std::uint32_t>(workers.size()) - 1;
    }

    const Worker &root() const { return workers.back(); }

    /** Endpoints of every worker at @p tier, ascending. */
    std::vector<std::uint32_t> tierEndpoints(std::uint32_t tier) const;

    /**
     * Fragment tops per tree for internal worker @p endpoint, as the
     * RoomWorker constructor takes them (kNoNode for trees without a
     * fragment). For the root worker: every tree's root.
     */
    std::vector<topo::NodeId> topsOf(std::uint32_t endpoint) const;

    /**
     * Boundary station sets per tree for internal worker @p endpoint:
     * the stations of its child workers, i.e. where its fragment's
     * gather/budget recursion cuts off.
     */
    std::vector<std::set<topo::NodeId>>
    boundariesOf(std::uint32_t endpoint) const;

    /**
     * Build the plan for @p system cut at @p agg_levels (ascending
     * heights above the edge level; may be empty for the 2-level
     * layout). fatal()s on invalid levels (non-ascending, 0, or at or
     * above some tree's root) and on topologies whose station layout
     * is not structurally parallel across trees.
     */
    static TreePlan build(const topo::PowerSystem &system,
                          const std::vector<std::uint32_t> &agg_levels);
};

} // namespace capmaestro::core

#endif // CAPMAESTRO_CORE_TREE_PLAN_HH
