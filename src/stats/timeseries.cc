#include "stats/timeseries.hh"

#include <algorithm>
#include <cmath>
#include <set>

namespace capmaestro::stats {

namespace {
const std::vector<SeriesPoint> kEmptySeries;
} // namespace

SeriesId
TimeSeriesRecorder::intern(const std::string &name)
{
    const auto [it, added] =
        ids_.try_emplace(name, static_cast<SeriesId>(points_.size()));
    if (added)
        points_.emplace_back();
    return it->second;
}

void
TimeSeriesRecorder::record(const std::string &name, Seconds time,
                           double value)
{
    record(intern(name), time, value);
}

const std::vector<SeriesPoint> &
TimeSeriesRecorder::series(const std::string &name) const
{
    auto it = ids_.find(name);
    return it == ids_.end() ? kEmptySeries : points_[it->second];
}

std::vector<std::string>
TimeSeriesRecorder::names() const
{
    std::vector<std::string> out;
    out.reserve(ids_.size());
    for (const auto &[name, id] : ids_) {
        if (!points_[id].empty())
            out.push_back(name);
    }
    return out;
}

double
TimeSeriesRecorder::last(const std::string &name, double fallback) const
{
    const auto &pts = series(name);
    return pts.empty() ? fallback : pts.back().value;
}

double
TimeSeriesRecorder::mean(const std::string &name, Seconds from,
                         Seconds to) const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &p : series(name)) {
        if (p.time >= from && p.time <= to) {
            sum += p.value;
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
TimeSeriesRecorder::max(const std::string &name, Seconds from,
                        Seconds to) const
{
    double best = 0.0;
    bool any = false;
    for (const auto &p : series(name)) {
        if (p.time >= from && p.time <= to) {
            best = any ? std::max(best, p.value) : p.value;
            any = true;
        }
    }
    return any ? best : 0.0;
}

Seconds
TimeSeriesRecorder::settleTime(const std::string &name, Seconds from,
                               double target, double tol,
                               Seconds to) const
{
    const auto &pts = series(name);
    Seconds settled = -1;
    for (const auto &p : pts) {
        if (p.time < from || p.time > to)
            continue;
        if (std::fabs(p.value - target) <= tol) {
            if (settled < 0)
                settled = p.time;
        } else {
            settled = -1;
        }
    }
    return settled;
}

void
TimeSeriesRecorder::printCsv(std::ostream &os) const
{
    // Columns in name order, skipping series without points.
    std::vector<const std::vector<SeriesPoint> *> columns;
    columns.reserve(ids_.size());
    os << "time";
    for (const auto &[name, id] : ids_) {
        if (points_[id].empty())
            continue;
        columns.push_back(&points_[id]);
        os << ',' << name;
    }
    os << '\n';

    // Collect the union of all timestamps.
    std::set<Seconds> times;
    for (const auto *pts : columns)
        for (const auto &p : *pts)
            times.insert(p.time);

    // Per-column cursor walk keeps this O(total points).
    std::vector<std::size_t> cursor(columns.size(), 0);
    for (Seconds t : times) {
        os << t;
        for (std::size_t c = 0; c < columns.size(); ++c) {
            const auto &pts = *columns[c];
            std::size_t &i = cursor[c];
            while (i < pts.size() && pts[i].time < t)
                ++i;
            os << ',';
            if (i < pts.size() && pts[i].time == t)
                os << pts[i].value;
        }
        os << '\n';
    }
    os.flush();
}

void
TimeSeriesRecorder::clear()
{
    ids_.clear();
    points_.clear();
}

} // namespace capmaestro::stats
