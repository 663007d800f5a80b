#include "topology/power_system.hh"

#include "util/logging.hh"

namespace capmaestro::topo {

PowerSystem::PowerSystem(int feeds)
{
    if (feeds < 1)
        util::fatal("PowerSystem needs at least one feed");
    feedFailed_.assign(static_cast<std::size_t>(feeds), false);
}

std::size_t
PowerSystem::addTree(std::unique_ptr<PowerTree> tree)
{
    if (!tree)
        util::panic("PowerSystem::addTree: null tree");
    if (tree->feed() < 0 || tree->feed() >= feeds()) {
        util::fatal("PowerSystem: tree %s feed %d out of range",
                    tree->name().c_str(), tree->feed());
    }
    const std::size_t index = trees_.size();
    tree->forEach([&](const TopoNode &n) {
        if (n.supplyRef) {
            auto key = std::make_pair(n.supplyRef->server,
                                      n.supplyRef->supply);
            auto [it, inserted] =
                portIndex_.emplace(key, SupplyPortLocation{index, n.id});
            if (!inserted) {
                util::fatal("PowerSystem: supply %d.%d appears in multiple "
                            "trees", n.supplyRef->server,
                            n.supplyRef->supply);
            }
        }
    });
    trees_.push_back(std::move(tree));
    return index;
}

const PowerTree &
PowerSystem::tree(std::size_t index) const
{
    if (index >= trees_.size())
        util::panic("PowerSystem: bad tree index %zu", index);
    return *trees_[index];
}

PowerTree &
PowerSystem::tree(std::size_t index)
{
    return const_cast<PowerTree &>(
        static_cast<const PowerSystem *>(this)->tree(index));
}

void
PowerSystem::failFeed(int feed)
{
    if (feed < 0 || feed >= feeds())
        util::fatal("PowerSystem::failFeed: bad feed %d", feed);
    feedFailed_[static_cast<std::size_t>(feed)] = true;
}

void
PowerSystem::restoreFeed(int feed)
{
    if (feed < 0 || feed >= feeds())
        util::fatal("PowerSystem::restoreFeed: bad feed %d", feed);
    feedFailed_[static_cast<std::size_t>(feed)] = false;
}

bool
PowerSystem::feedFailed(int feed) const
{
    if (feed < 0 || feed >= feeds())
        util::fatal("PowerSystem::feedFailed: bad feed %d", feed);
    return feedFailed_[static_cast<std::size_t>(feed)];
}

int
PowerSystem::liveFeeds() const
{
    int live = 0;
    for (bool failed : feedFailed_)
        live += failed ? 0 : 1;
    return live;
}

std::map<std::int32_t, SupplyPortLocation>
PowerSystem::livePortsOf(std::int32_t server) const
{
    std::map<std::int32_t, SupplyPortLocation> out;
    // portIndex_ keys are ordered (server, supply) pairs; scan the range.
    auto it = portIndex_.lower_bound({server, 0});
    for (; it != portIndex_.end() && it->first.first == server; ++it) {
        const auto &loc = it->second;
        if (!feedFailed_[static_cast<std::size_t>(
                trees_[loc.tree]->feed())]) {
            out.emplace(it->first.second, loc);
        }
    }
    return out;
}

bool
PowerSystem::supplyFed(std::int32_t server, std::int32_t supply) const
{
    const auto it = portIndex_.find({server, supply});
    return it != portIndex_.end()
           && !feedFailed_[static_cast<std::size_t>(
               trees_[it->second.tree]->feed())];
}

std::size_t
PowerSystem::validate() const
{
    std::size_t total = 0;
    for (const auto &t : trees_)
        total += t->validate();
    return total;
}

} // namespace capmaestro::topo
