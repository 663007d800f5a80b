/**
 * @file
 * A complete power-delivery system: one PowerTree per (feed, phase), with
 * feed-level failure state and supply-port lookup.
 *
 * For an N+N redundant center with two feeds and three phases this holds
 * six trees (paper §4.1). Testbed topologies use a single feed and phase.
 */

#ifndef CAPMAESTRO_TOPOLOGY_POWER_SYSTEM_HH
#define CAPMAESTRO_TOPOLOGY_POWER_SYSTEM_HH

#include <map>
#include <memory>
#include <vector>

#include "topology/power_tree.hh"

namespace capmaestro::topo {

/** Location of a supply port: which tree and which node within it. */
struct SupplyPortLocation
{
    /** Index of the tree in PowerSystem::trees(). */
    std::size_t tree = 0;
    /** Node id within that tree. */
    NodeId node = kNoNode;
};

/** Collection of per-(feed, phase) power trees plus feed failure state. */
class PowerSystem
{
  public:
    /** @param feeds number of independent feeds (>= 1) */
    explicit PowerSystem(int feeds);

    /** Add a tree; its feed index must be < feeds(). Returns tree index. */
    std::size_t addTree(std::unique_ptr<PowerTree> tree);

    /** Number of feeds. */
    int feeds() const { return static_cast<int>(feedFailed_.size()); }

    /** All trees. */
    const std::vector<std::unique_ptr<PowerTree>> &trees() const
    {
        return trees_;
    }

    /** Tree accessor (checked). */
    const PowerTree &tree(std::size_t index) const;

    /** Mutable tree accessor (checked). */
    PowerTree &tree(std::size_t index);

    /** Mark an entire feed as failed (all its trees dead). */
    void failFeed(int feed);

    /** Restore a failed feed. */
    void restoreFeed(int feed);

    /** True when @p feed is failed. */
    bool feedFailed(int feed) const;

    /** Number of currently live feeds. */
    int liveFeeds() const;

    /**
     * Locations of every port of @p server across all live trees,
     * keyed by supply index. Failed feeds are excluded.
     */
    std::map<std::int32_t, SupplyPortLocation>
    livePortsOf(std::int32_t server) const;

    /** @p server's supply @p supply has a port on a live feed (a key
     *  of livePortsOf(@p server)); allocates nothing. */
    bool supplyFed(std::int32_t server, std::int32_t supply) const;

    /**
     * Validate every tree and the cross-tree invariant that no
     * (server, supply) pair appears in two trees. Returns total ports.
     */
    std::size_t validate() const;

  private:
    std::vector<std::unique_ptr<PowerTree>> trees_;
    std::vector<bool> feedFailed_;
    /** (server, supply) -> location cache, built on insertion. */
    std::map<std::pair<std::int32_t, std::int32_t>, SupplyPortLocation>
        portIndex_;
};

} // namespace capmaestro::topo

#endif // CAPMAESTRO_TOPOLOGY_POWER_SYSTEM_HH
