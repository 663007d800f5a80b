#include "control/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace capmaestro::ctrl {

void
NodeMetrics::accumulate(Priority priority, Watts cap_min, Watts demand,
                        Watts request)
{
    // Find insertion point keeping strictly descending priority order.
    auto it = std::lower_bound(
        classes_.begin(), classes_.end(), priority,
        [](const ClassMetrics &c, Priority p) { return c.priority > p; });
    if (it != classes_.end() && it->priority == priority) {
        it->capMin += cap_min;
        it->demand += demand;
        it->request += request;
    } else {
        classes_.insert(it, ClassMetrics{priority, cap_min, demand,
                                         request});
    }
}

Watts
NodeMetrics::totalCapMin() const
{
    Watts sum = 0.0;
    for (const auto &c : classes_)
        sum += c.capMin;
    return sum;
}

Watts
NodeMetrics::totalDemand() const
{
    Watts sum = 0.0;
    for (const auto &c : classes_)
        sum += c.demand;
    return sum;
}

Watts
NodeMetrics::totalRequest() const
{
    Watts sum = 0.0;
    for (const auto &c : classes_)
        sum += c.request;
    return sum;
}

const ClassMetrics *
NodeMetrics::findClass(Priority priority) const
{
    for (const auto &c : classes_) {
        if (c.priority == priority)
            return &c;
    }
    return nullptr;
}

NodeMetrics
NodeMetrics::collapsed() const
{
    NodeMetrics out;
    out.collapseFrom(*this);
    return out;
}

void
NodeMetrics::collapseFrom(const NodeMetrics &src)
{
    // Read everything from src before writing: src may be *this.
    const Watts constraint = src.constraint_;
    const bool empty = src.classes_.empty();
    const Watts cap_min = src.totalCapMin();
    const Watts demand = src.totalDemand();
    const Watts request = std::min(src.totalRequest(), constraint);
    classes_.clear();
    constraint_ = constraint;
    if (!empty)
        accumulate(0, cap_min, demand, request);
}

bool
NodeMetrics::finite() const
{
    for (const auto &c : classes_) {
        if (!std::isfinite(c.capMin) || !std::isfinite(c.demand)
            || !std::isfinite(c.request))
            return false;
    }
    return std::isfinite(constraint_);
}

void
NodeMetrics::setFloorOnly(Watts floor)
{
    classes_.clear();
    if (floor > 0.0)
        accumulate(0, floor, floor, floor);
    constraint_ = floor;
}

void
NodeMetrics::clear()
{
    classes_.clear();
    constraint_ = 0.0;
}

std::string
NodeMetrics::toString() const
{
    std::string out = "{";
    char buf[128];
    for (const auto &c : classes_) {
        std::snprintf(buf, sizeof(buf),
                      " [p%d min=%.1f dem=%.1f req=%.1f]", c.priority,
                      c.capMin, c.demand, c.request);
        out += buf;
    }
    std::snprintf(buf, sizeof(buf), " constraint=%.1f }", constraint_);
    out += buf;
    return out;
}

} // namespace capmaestro::ctrl
