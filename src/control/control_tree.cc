#include "control/control_tree.hh"

#include <algorithm>

#include "util/logging.hh"

namespace capmaestro::ctrl {

ControlTree::ControlTree(const topo::PowerTree &tree, TreePolicy policy)
    : tree_(tree), policy_(policy)
{
    nodes_.resize(tree_.size());
    tree_.forEach([this](const topo::TopoNode &tn) {
        CtrlNode &cn = nodes_[static_cast<std::size_t>(tn.id)];
        cn.limit = tn.limit();
        cn.isLeaf = tn.kind == topo::NodeKind::SupplyPort;
        if (cn.isLeaf) {
            cn.leaf.live = false; // dead until the first setLeafInput()
            leafIndex_[{tn.supplyRef->server, tn.supplyRef->supply}] = tn.id;
        }
        // A leaf-parent is a node with at least one supply-port child.
        bool leaf_parent = false;
        for (topo::NodeId c : tn.children) {
            if (tree_.node(c).kind == topo::NodeKind::SupplyPort)
                leaf_parent = true;
        }
        if (leaf_parent) {
            cn.budgetByPriority = policy_.leafPriorityAware;
            cn.reportByPriority = policy_.upperPriorityAware;
        } else {
            cn.budgetByPriority = policy_.upperPriorityAware;
            cn.reportByPriority = policy_.upperPriorityAware;
        }
    });
}

bool
ControlTree::setLeafInput(const topo::ServerSupplyRef &ref,
                          const LeafInput &input)
{
    auto it = leafIndex_.find({ref.server, ref.supply});
    if (it == leafIndex_.end()) {
        util::panic("ControlTree %s: no leaf for supply %d.%d",
                    tree_.name().c_str(), ref.server, ref.supply);
    }
    if (!input.finite())
        return false;
    nodes_[static_cast<std::size_t>(it->second)].leaf = input;
    return true;
}

void
ControlTree::clearAllLeaves()
{
    for (auto &[key, id] : leafIndex_)
        nodes_[static_cast<std::size_t>(id)].leaf.live = false;
}

void
ControlTree::gatherNode(topo::NodeId id)
{
    const topo::TopoNode &tn = tree_.node(id);
    CtrlNode &cn = nodes_[static_cast<std::size_t>(id)];

    if (cn.isLeaf) {
        cn.metrics.clear();
        if (cn.leaf.live) {
            const Watts demand = std::max(cn.leaf.demand, cn.leaf.capMin);
            const Watts constraint =
                std::min(cn.leaf.constraint, cn.limit);
            cn.metrics.accumulate(cn.leaf.priority, cn.leaf.capMin, demand,
                                  /*request=*/demand);
            cn.metrics.setConstraint(constraint);
        }
        return;
    }

    std::vector<NodeMetrics> child_metrics;
    child_metrics.reserve(tn.children.size());
    for (topo::NodeId c : tn.children) {
        gatherNode(c);
        child_metrics.push_back(nodes_[static_cast<std::size_t>(c)].metrics);
    }
    cn.metrics = gatherMetrics(child_metrics, cn.limit,
                               cn.reportByPriority);
}

void
ControlTree::gather()
{
    if (tree_.root() == topo::kNoNode)
        util::fatal("ControlTree %s: empty topology",
                    tree_.name().c_str());
    gatherNode(tree_.root());
}

void
ControlTree::budgetNode(topo::NodeId id, AllocationOutcome &outcome)
{
    const topo::TopoNode &tn = tree_.node(id);
    CtrlNode &cn = nodes_[static_cast<std::size_t>(id)];
    if (cn.isLeaf || tn.children.empty())
        return;

    std::vector<NodeMetrics> child_metrics;
    child_metrics.reserve(tn.children.size());
    for (topo::NodeId c : tn.children)
        child_metrics.push_back(nodes_[static_cast<std::size_t>(c)].metrics);

    // A controller never distributes more than its device can carry,
    // even if an (infeasible) parent handed it more: the breaker, not
    // the budget, is the physical constraint.
    const Watts usable = std::min(cn.budget, cn.limit);
    const BudgetSplit split =
        budgetChildren(usable, child_metrics, cn.budgetByPriority);
    if (!split.feasible)
        outcome.feasible = false;
    if (id == tree_.root())
        outcome.unallocatedAtRoot = split.unallocated;

    for (std::size_t i = 0; i < tn.children.size(); ++i) {
        const topo::NodeId c = tn.children[i];
        nodes_[static_cast<std::size_t>(c)].budget = split.childBudgets[i];
        budgetNode(c, outcome);
    }
}

AllocationOutcome
ControlTree::allocate(Watts root_budget)
{
    AllocationOutcome outcome;
    const topo::NodeId root = tree_.root();
    CtrlNode &rn = nodes_[static_cast<std::size_t>(root)];
    rn.budget = std::min(root_budget, rn.limit);
    budgetNode(root, outcome);
    return outcome;
}

Watts
ControlTree::leafBudget(const topo::ServerSupplyRef &ref) const
{
    auto it = leafIndex_.find({ref.server, ref.supply});
    if (it == leafIndex_.end()) {
        util::panic("ControlTree %s: no leaf for supply %d.%d",
                    tree_.name().c_str(), ref.server, ref.supply);
    }
    return nodes_[static_cast<std::size_t>(it->second)].budget;
}

Watts
ControlTree::nodeBudget(topo::NodeId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size())
        util::panic("ControlTree %s: bad node id %d", tree_.name().c_str(),
                    id);
    return nodes_[static_cast<std::size_t>(id)].budget;
}

const NodeMetrics &
ControlTree::nodeMetrics(topo::NodeId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size())
        util::panic("ControlTree %s: bad node id %d", tree_.name().c_str(),
                    id);
    return nodes_[static_cast<std::size_t>(id)].metrics;
}

const NodeMetrics &
ControlTree::rootMetrics() const
{
    return nodeMetrics(tree_.root());
}

std::vector<topo::ServerSupplyRef>
ControlTree::leafRefs() const
{
    std::vector<topo::ServerSupplyRef> out;
    out.reserve(leafIndex_.size());
    for (const auto &[key, id] : leafIndex_)
        out.push_back({key.first, key.second});
    return out;
}

std::size_t
ControlTree::messagesPerIteration() const
{
    // Each edge carries one metrics message up and one budget message down.
    return 2 * (tree_.size() - 1);
}

} // namespace capmaestro::ctrl
