/**
 * @file
 * Unit tests for the stats module: Welford accumulator (including merge),
 * histograms, and the time-series recorder used by control-loop traces.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "stats/accumulator.hh"
#include "stats/histogram.hh"
#include "stats/timeseries.hh"

namespace cs = capmaestro::stats;

TEST(Accumulator, BasicMoments)
{
    cs::Accumulator acc;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(v);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, EmptyIsZero)
{
    cs::Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
    EXPECT_DOUBLE_EQ(acc.min(), 0.0);
    EXPECT_DOUBLE_EQ(acc.max(), 0.0);
}

TEST(Accumulator, MergeMatchesSequential)
{
    cs::Accumulator whole, left, right;
    for (int i = 0; i < 100; ++i) {
        const double v = 0.1 * i * i - 3.0 * i;
        whole.add(v);
        (i < 37 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeWithEmpty)
{
    cs::Accumulator a, b;
    a.add(1.0);
    a.add(3.0);
    a.merge(b); // no-op
    EXPECT_EQ(a.count(), 2u);
    b.merge(a); // copies
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Accumulator, ClearResets)
{
    cs::Accumulator a;
    a.add(5.0);
    a.clear();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Histogram, BinningAndClamping)
{
    cs::Histogram h(0.0, 1.0, 10);
    h.add(0.05); // bin 0
    h.add(0.15); // bin 1
    h.add(0.95); // bin 9
    h.add(-5.0); // clamps to bin 0
    h.add(5.0);  // clamps to bin 9
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_DOUBLE_EQ(h.binFraction(0), 0.4);
    EXPECT_NEAR(h.binCenter(0), 0.05, 1e-12);
    EXPECT_NEAR(h.binLow(9), 0.9, 1e-12);
}

TEST(Histogram, UpperBoundIsExclusive)
{
    cs::Histogram h(0.0, 1.0, 10);
    h.add(1.0);    // exactly hi: clamps into the last bin
    h.add(0.9999); // just under hi: also the last bin, by binning
    h.add(1e300);  // far above: clamps, no overflow
    EXPECT_EQ(h.binCount(9), 3u);
    EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, NonFiniteSamplesClamp)
{
    cs::Histogram h(0.0, 1.0, 4);
    h.add(std::numeric_limits<double>::quiet_NaN());
    h.add(-std::numeric_limits<double>::infinity());
    h.add(std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.binCount(0), 2u); // NaN and -inf
    EXPECT_EQ(h.binCount(3), 1u); // +inf
    EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, EdgeAccessors)
{
    cs::Histogram h(10.0, 20.0, 5);
    EXPECT_DOUBLE_EQ(h.lo(), 10.0);
    EXPECT_DOUBLE_EQ(h.hi(), 20.0);
    EXPECT_DOUBLE_EQ(h.binLow(0), 10.0);
    EXPECT_DOUBLE_EQ(h.binHigh(0), 12.0);
    EXPECT_DOUBLE_EQ(h.binHigh(4), 20.0);
}

TEST(Histogram, ZeroWidthRangeIsLegal)
{
    // Regression: a degenerate hi == lo range used to fatal() in the
    // constructor, which broke SLO histograms over a zero-width target
    // band (e.g. every tenant sharing one slowdown target). The
    // documented contract: samples <= lo land in bin 0, everything
    // above clamps into the last bin, and no division blows up.
    cs::Histogram h(2.0, 2.0, 4);
    h.add(2.0);  // == lo: bin 0
    h.add(1.0);  // below: bin 0
    h.add(3.0);  // above: last bin
    h.add(std::numeric_limits<double>::infinity()); // clamps, finite
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(3), 2u);
    EXPECT_DOUBLE_EQ(h.lo(), h.hi());
}

TEST(HistogramDeath, RejectsInvertedRange)
{
    // hi < lo is still a configuration error, not a degenerate range.
    EXPECT_DEATH(cs::Histogram(2.0, 1.0, 4), "hi >= lo");
}

TEST(Histogram, RenderContainsBars)
{
    cs::Histogram h(0.0, 1.0, 4);
    for (int i = 0; i < 10; ++i)
        h.add(0.3);
    const std::string out = h.render(20);
    EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(TimeSeries, RecordAndQuery)
{
    cs::TimeSeriesRecorder rec;
    for (int t = 0; t < 10; ++t)
        rec.record("power", t, 100.0 + t);
    EXPECT_EQ(rec.series("power").size(), 10u);
    EXPECT_DOUBLE_EQ(rec.last("power"), 109.0);
    EXPECT_DOUBLE_EQ(rec.mean("power", 0, 9), 104.5);
    EXPECT_DOUBLE_EQ(rec.max("power", 2, 5), 105.0);
    EXPECT_DOUBLE_EQ(rec.last("missing", -1.0), -1.0);
    EXPECT_TRUE(rec.series("missing").empty());
}

TEST(TimeSeries, SettleTime)
{
    cs::TimeSeriesRecorder rec;
    // Approaches 200 and stays there from t=5 onward.
    const double vals[] = {260, 240, 220, 210, 204, 200.5, 200.2, 200.1};
    for (int t = 0; t < 8; ++t)
        rec.record("ps", t, vals[t]);
    EXPECT_EQ(rec.settleTime("ps", 0, 200.0, 1.0), 5);
    // Tolerance too tight: never settles.
    EXPECT_EQ(rec.settleTime("ps", 0, 200.0, 0.05), -1);
}

TEST(TimeSeries, SettleTimeBoundedWindow)
{
    cs::TimeSeriesRecorder rec;
    rec.record("v", 0, 100.0);
    rec.record("v", 1, 100.0);
    rec.record("v", 2, 100.0);
    rec.record("v", 3, 500.0); // later excursion outside the window
    EXPECT_EQ(rec.settleTime("v", 0, 100.0, 1.0), -1);
    EXPECT_EQ(rec.settleTime("v", 0, 100.0, 1.0, /*to=*/2), 0);
}

TEST(TimeSeries, SettleTimeResetsOnExcursion)
{
    cs::TimeSeriesRecorder rec;
    rec.record("v", 0, 100.0);
    rec.record("v", 1, 100.0);
    rec.record("v", 2, 150.0); // excursion
    rec.record("v", 3, 100.0);
    EXPECT_EQ(rec.settleTime("v", 0, 100.0, 1.0), 3);
}

TEST(TimeSeries, CsvUnionOfTimestamps)
{
    cs::TimeSeriesRecorder rec;
    rec.record("a", 0, 1.0);
    rec.record("a", 2, 2.0);
    rec.record("b", 1, 5.0);
    std::ostringstream os;
    rec.printCsv(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("time,a,b"), std::string::npos);
    // t=1 line has an empty cell for 'a'.
    EXPECT_NE(s.find("1,,5"), std::string::npos);
    EXPECT_EQ(s, "time,a,b\n0,1,\n1,,5\n2,2,\n");
}

TEST(TimeSeries, NamesSortedAndClear)
{
    cs::TimeSeriesRecorder rec;
    rec.record("z", 0, 1.0);
    rec.record("a", 0, 1.0);
    const auto names = rec.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "z");
    rec.clear();
    EXPECT_TRUE(rec.names().empty());
}

TEST(TimeSeries, HandleAndNameReachTheSameSeries)
{
    cs::TimeSeriesRecorder rec;
    const cs::SeriesId id = rec.intern("S0.power");
    EXPECT_EQ(rec.intern("S0.power"), id);
    rec.record(id, 0, 10.0);
    rec.record("S0.power", 1, 20.0);
    rec.record(id, 2, 30.0);
    const auto &pts = rec.series("S0.power");
    ASSERT_EQ(pts.size(), 3u);
    EXPECT_EQ(pts[0].value, 10.0);
    EXPECT_EQ(pts[1].value, 20.0);
    EXPECT_EQ(pts[2].time, 2);
    EXPECT_DOUBLE_EQ(rec.mean("S0.power", 0, 2), 20.0);
    EXPECT_DOUBLE_EQ(rec.max("S0.power", 0, 1), 20.0);
    EXPECT_EQ(rec.settleTime("S0.power", 0, 30.0, 0.5), 2);
    // A name recorded first and interned later keeps its handle.
    rec.record("S1.power", 0, 1.0);
    const cs::SeriesId later = rec.intern("S1.power");
    EXPECT_NE(later, id);
    rec.record(later, 1, 2.0);
    EXPECT_EQ(rec.series("S1.power").size(), 2u);
}

TEST(TimeSeries, InternedButEmptySeriesStayInvisible)
{
    cs::TimeSeriesRecorder rec;
    rec.intern("quiet");
    rec.record("loud", 0, 1.0);
    const auto names = rec.names();
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "loud");
    EXPECT_TRUE(rec.series("quiet").empty());
    EXPECT_DOUBLE_EQ(rec.last("quiet", -1.0), -1.0);
    EXPECT_DOUBLE_EQ(rec.mean("quiet", 0, 10), 0.0);
    EXPECT_EQ(rec.settleTime("quiet", 0, 0.0, 1.0), -1);
    std::ostringstream os;
    rec.printCsv(os);
    EXPECT_EQ(os.str(), "time,loud\n0,1\n");

    // An interned-only recorder prints just the header.
    cs::TimeSeriesRecorder only;
    only.intern("quiet");
    EXPECT_TRUE(only.names().empty());
    std::ostringstream empty;
    only.printCsv(empty);
    EXPECT_EQ(empty.str(), "time\n");
}

TEST(TimeSeries, ClearResetsNamesPointsAndHandles)
{
    cs::TimeSeriesRecorder rec;
    const cs::SeriesId a = rec.intern("a");
    rec.record(a, 0, 1.0);
    rec.record("b", 0, 2.0);
    rec.intern("c");
    rec.clear();
    EXPECT_TRUE(rec.names().empty());
    EXPECT_TRUE(rec.series("a").empty());
    EXPECT_TRUE(rec.series("b").empty());
    std::ostringstream os;
    rec.printCsv(os);
    EXPECT_EQ(os.str(), "time\n");
    // Handles start over: the first intern after clear()
    // reuses the first handle for a fresh, empty series.
    const cs::SeriesId again = rec.intern("z");
    EXPECT_EQ(again, a);
    rec.record(again, 5, 3.0);
    EXPECT_TRUE(rec.series("a").empty());
    ASSERT_EQ(rec.series("z").size(), 1u);
    EXPECT_EQ(rec.series("z")[0].time, 5);
}
