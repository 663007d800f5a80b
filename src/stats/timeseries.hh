/**
 * @file
 * Named time-series recorder for control-loop traces (Figures 5, 6b, 7c).
 */

#ifndef CAPMAESTRO_STATS_TIMESERIES_HH
#define CAPMAESTRO_STATS_TIMESERIES_HH

#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/units.hh"

namespace capmaestro::stats {

/** One sampled point of a series. */
struct SeriesPoint
{
    Seconds time = 0;
    double value = 0.0;
};

/** Handle of one series in a TimeSeriesRecorder (see intern()). */
using SeriesId = std::uint32_t;

/**
 * A collection of named series sampled on a shared simulated clock.
 * Series lengths may differ (not every series is sampled every tick).
 *
 * Hot recording paths intern a name once and record through the
 * handle, which skips building and looking up the name per sample.
 * A series exists for the queries below only once it has a point: an
 * interned but never recorded series is invisible to names(), series()
 * and printCsv().
 */
class TimeSeriesRecorder
{
  public:
    /**
     * Handle for series @p name, creating it (empty) when new. Handles
     * stay valid until clear().
     */
    SeriesId intern(const std::string &name);

    /** Record @p value for series @p name at simulated @p time. */
    void record(const std::string &name, Seconds time, double value);

    /** Record @p value for the series behind handle @p id, which
     *  intern() returned since the last clear(). */
    void record(SeriesId id, Seconds time, double value)
    {
        points_[id].push_back({time, value});
    }

    /** All points of one series (empty when the name is unknown). */
    const std::vector<SeriesPoint> &series(const std::string &name) const;

    /** Names of all recorded series, sorted. */
    std::vector<std::string> names() const;

    /** Last recorded value of a series; @p fallback when empty. */
    double last(const std::string &name, double fallback = 0.0) const;

    /** Mean of a series over [from, to] (inclusive); 0 when no points. */
    double mean(const std::string &name, Seconds from, Seconds to) const;

    /** Max of a series over [from, to]; 0 when no points. */
    double max(const std::string &name, Seconds from, Seconds to) const;

    /**
     * First time >= @p from at which |value - target| <= tol held and
     * continued to hold for every later sample up to @p to (inclusive;
     * pass the default to consider the whole series). Returns -1 if
     * never.
     */
    Seconds settleTime(const std::string &name, Seconds from, double target,
                       double tol,
                       Seconds to = std::numeric_limits<Seconds>::max())
        const;

    /** Emit CSV: time plus one column per series (blank when missing). */
    void printCsv(std::ostream &os) const;

    /** Drop all series and invalidate every handle. */
    void clear();

  private:
    /** Name -> handle; its sorted order is the order of names()/CSV. */
    std::map<std::string, SeriesId> ids_;
    /** Points per handle. */
    std::vector<std::vector<SeriesPoint>> points_;
};

} // namespace capmaestro::stats

#endif // CAPMAESTRO_STATS_TIMESERIES_HH
