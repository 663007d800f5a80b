#include "topology/power_tree.hh"

#include <algorithm>
#include <set>

#include "util/logging.hh"

namespace capmaestro::topo {

const char *
nodeKindName(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Contractual: return "contractual";
      case NodeKind::Ats:         return "ats";
      case NodeKind::Transformer: return "transformer";
      case NodeKind::Ups:         return "ups";
      case NodeKind::Rpp:         return "rpp";
      case NodeKind::Cdu:         return "cdu";
      case NodeKind::Breaker:     return "breaker";
      case NodeKind::SupplyPort:  return "supply-port";
    }
    return "unknown";
}

PowerTree::PowerTree(int feed, int phase, std::string name)
    : feed_(feed), phase_(phase), name_(std::move(name))
{
}

NodeId
PowerTree::allocate(NodeId parent, NodeKind kind, const std::string &name,
                    Watts rating, Fraction derate)
{
    TopoNode n;
    n.id = static_cast<NodeId>(nodes_.size());
    n.parent = parent;
    n.kind = kind;
    n.name = name;
    n.rating = rating;
    n.derate = derate;
    nodes_.push_back(std::move(n));
    if (parent != kNoNode)
        node(parent).children.push_back(nodes_.back().id);
    return nodes_.back().id;
}

NodeId
PowerTree::makeRoot(NodeKind kind, const std::string &name, Watts rating,
                    Fraction derate)
{
    if (root_ != kNoNode)
        util::fatal("PowerTree %s: root already created", name_.c_str());
    root_ = allocate(kNoNode, kind, name, rating, derate);
    return root_;
}

NodeId
PowerTree::addChild(NodeId parent, NodeKind kind, const std::string &name,
                    Watts rating, Fraction derate)
{
    if (kind == NodeKind::SupplyPort)
        util::fatal("use addSupplyPort() for supply-port leaves");
    node(parent); // bounds check
    return allocate(parent, kind, name, rating, derate);
}

NodeId
PowerTree::addSupplyPort(NodeId parent, const std::string &name,
                         ServerSupplyRef ref, Watts rating, Fraction derate)
{
    node(parent); // bounds check
    const NodeId id =
        allocate(parent, NodeKind::SupplyPort, name, rating, derate);
    nodes_[static_cast<std::size_t>(id)].supplyRef = ref;
    return id;
}

const TopoNode &
PowerTree::node(NodeId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size())
        util::panic("PowerTree %s: bad node id %d", name_.c_str(), id);
    return nodes_[static_cast<std::size_t>(id)];
}

TopoNode &
PowerTree::node(NodeId id)
{
    return const_cast<TopoNode &>(
        static_cast<const PowerTree *>(this)->node(id));
}

void
PowerTree::forEach(const std::function<void(const TopoNode &)> &fn) const
{
    if (root_ == kNoNode)
        return;
    std::vector<NodeId> stack{root_};
    while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        const TopoNode &n = node(id);
        fn(n);
        for (auto it = n.children.rbegin(); it != n.children.rend(); ++it)
            stack.push_back(*it);
    }
}

std::vector<ServerSupplyRef>
PowerTree::suppliesUnder(NodeId id) const
{
    std::vector<ServerSupplyRef> out;
    std::vector<NodeId> stack{id};
    while (!stack.empty()) {
        const TopoNode &n = node(stack.back());
        stack.pop_back();
        if (n.supplyRef)
            out.push_back(*n.supplyRef);
        for (auto it = n.children.rbegin(); it != n.children.rend(); ++it)
            stack.push_back(*it);
    }
    return out;
}

std::vector<NodeId>
PowerTree::supplyPorts() const
{
    std::vector<NodeId> out;
    forEach([&out](const TopoNode &n) {
        if (n.kind == NodeKind::SupplyPort)
            out.push_back(n.id);
    });
    return out;
}

std::size_t
PowerTree::validate() const
{
    if (root_ == kNoNode)
        util::fatal("PowerTree %s: no root", name_.c_str());

    std::set<std::pair<std::int32_t, std::int32_t>> seen_refs;
    std::size_t ports = 0;
    forEach([&](const TopoNode &n) {
        if (n.rating != kUnlimited && n.rating <= 0.0) {
            util::fatal("PowerTree %s: node %s has non-positive rating",
                        name_.c_str(), n.name.c_str());
        }
        if (n.derate <= 0.0 || n.derate > 1.0) {
            util::fatal("PowerTree %s: node %s derate %f outside (0,1]",
                        name_.c_str(), n.name.c_str(), n.derate);
        }
        const bool is_port = n.kind == NodeKind::SupplyPort;
        if (is_port != n.supplyRef.has_value()) {
            util::fatal("PowerTree %s: node %s supply-ref/kind mismatch",
                        name_.c_str(), n.name.c_str());
        }
        if (is_port) {
            ++ports;
            if (!n.children.empty()) {
                util::fatal("PowerTree %s: supply port %s has children",
                            name_.c_str(), n.name.c_str());
            }
            auto key = std::make_pair(n.supplyRef->server,
                                      n.supplyRef->supply);
            if (!seen_refs.insert(key).second) {
                util::fatal("PowerTree %s: duplicate supply ref %d.%d",
                            name_.c_str(), n.supplyRef->server,
                            n.supplyRef->supply);
            }
        } else if (n.children.empty()) {
            util::warn("PowerTree %s: interior node %s has no children",
                       name_.c_str(), n.name.c_str());
        }
    });
    return ports;
}

namespace {

/** Load beneath station @p id against @p bound; appends the overloaded
 *  stations of its subtree to @p out in pre-order. */
Watts
loadBeneath(const PowerTree &tree, NodeId id, Watts bound,
            const std::map<NodeId, Watts> &applied,
            std::vector<Overload> &out)
{
    const std::size_t at = out.size();
    const auto own = applied.find(id);
    Watts load = own != applied.end() ? own->second : 0.0;
    if (own == applied.end()) {
        for (const NodeId c : tree.node(id).children)
            load += loadBeneath(tree, c, tree.node(c).limit(), applied, out);
    }
    if (!(load <= bound + std::max(1e-6, 1e-9 * bound)))
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at),
                   {id, load, bound});
    return load;
}

} // namespace

std::vector<Overload>
overloads(const PowerTree &tree, NodeId top, Watts top_budget,
          const std::map<NodeId, Watts> &applied)
{
    std::vector<Overload> out;
    loadBeneath(tree, top, std::min(tree.node(top).limit(), top_budget),
                applied, out);
    return out;
}

} // namespace capmaestro::topo
