/**
 * @file
 * obs::IntervalStats: delta-vs-sample semantics, reconciliation of
 * interval columns against the cumulative registry dump, dropped
 * duplicate snapshots, deterministic CSV output, column order versus
 * registry visit order, mid-run registrations, copies extended
 * against another registry, and printf-exact cell formatting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/csv.hh"
#include "obs/interval_stats.hh"
#include "obs/metrics.hh"

namespace {

using namespace polca;

double
columnSum(const std::vector<std::vector<std::string>> &rows,
          const std::string &column)
{
    std::size_t col = rows[0].size();
    for (std::size_t c = 0; c < rows[0].size(); ++c) {
        if (rows[0][c] == column)
            col = c;
    }
    EXPECT_LT(col, rows[0].size()) << "missing column " << column;
    double sum = 0.0;
    for (std::size_t r = 1; r < rows.size(); ++r)
        sum += std::strtod(rows[r][col].c_str(), nullptr);
    return sum;
}

std::string
csvOf(const obs::IntervalStats &stats)
{
    std::ostringstream os;
    stats.writeCsv(os);
    return os.str();
}

std::string
printfFixed(const char *format, double v)
{
    char buf[400];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

TEST(IntervalStats, CountersAreDeltasGaugesAreSamples)
{
    obs::MetricsRegistry registry;
    obs::Counter &c = registry.counter("work.done");
    obs::Gauge &g = registry.gauge("level");
    obs::IntervalStats stats;

    c += 5;
    g.set(1.0);
    stats.snapshot(1.0, registry);
    c += 7;
    g.set(2.5);
    stats.snapshot(2.0, registry);

    std::ostringstream os;
    stats.writeCsv(os);
    auto rows = analysis::parseCsv(os.str());
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0][0], "time_s");

    // Counter column: per-interval deltas (5 then 7), not 5 then 12.
    EXPECT_DOUBLE_EQ(columnSum(rows, "work.done"), 12.0);
    std::size_t cCol = 0, gCol = 0;
    for (std::size_t i = 0; i < rows[0].size(); ++i) {
        if (rows[0][i] == "work.done")
            cCol = i;
        if (rows[0][i] == "level")
            gCol = i;
    }
    EXPECT_EQ(rows[1][cCol], "5");
    EXPECT_EQ(rows[2][cCol], "7");
    // Gauge column: point samples.
    EXPECT_EQ(rows[1][gCol], "1.000000");
    EXPECT_EQ(rows[2][gCol], "2.500000");
}

TEST(IntervalStats, DeltaColumnsReconcileWithCumulativeDump)
{
    obs::MetricsRegistry registry;
    obs::Counter &c = registry.counter("events");
    obs::LogHistogram &h =
        registry.logHistogram("lat", 1e-3, 10.0, 0.01);
    obs::IntervalStats stats;

    // Uneven activity across intervals, including an idle one.
    for (int interval = 0; interval < 4; ++interval) {
        int work = interval == 2 ? 0 : (interval + 1) * 3;
        for (int i = 0; i < work; ++i) {
            ++c;
            h.add(0.5);
        }
        stats.snapshot(static_cast<double>(interval + 1), registry);
    }

    std::ostringstream os;
    stats.writeCsv(os);
    auto rows = analysis::parseCsv(os.str());
    // Column sums reconcile exactly with the cumulative registry:
    // the registry is never reset by snapshots.
    EXPECT_DOUBLE_EQ(columnSum(rows, "events"),
                     static_cast<double>(c.value()));
    EXPECT_DOUBLE_EQ(columnSum(rows, "lat::count"),
                     static_cast<double>(h.count()));
    EXPECT_EQ(c.value(), 21u);  // 3 + 6 + 0 + 12
}

TEST(IntervalStats, DuplicateTimeSnapshotDropped)
{
    obs::MetricsRegistry registry;
    registry.counter("c") += 1;
    obs::IntervalStats stats;
    stats.snapshot(5.0, registry);
    registry.counter("c") += 1;
    // The end-of-run partial snapshot lands on the last periodic one
    // when the cadence divides the duration — dropped, not doubled.
    stats.snapshot(5.0, registry);
    EXPECT_EQ(stats.rows(), 1u);
    EXPECT_DOUBLE_EQ(stats.lastTimeS(), 5.0);
}

TEST(IntervalStatsDeathTest, TimeBackwardsPanics)
{
    obs::MetricsRegistry registry;
    obs::IntervalStats stats;
    stats.snapshot(2.0, registry);
    EXPECT_DEATH(stats.snapshot(1.0, registry), "precedes");
}

TEST(IntervalStats, MetricRegisteredMidRunBackfillsZero)
{
    obs::MetricsRegistry registry;
    registry.counter("early") += 1;
    obs::IntervalStats stats;
    stats.snapshot(1.0, registry);
    registry.counter("late") += 4;
    stats.snapshot(2.0, registry);

    std::ostringstream os;
    stats.writeCsv(os);
    auto rows = analysis::parseCsv(os.str());
    ASSERT_EQ(rows.size(), 3u);
    std::size_t lateCol = 0;
    for (std::size_t i = 0; i < rows[0].size(); ++i) {
        if (rows[0][i] == "late")
            lateCol = i;
    }
    ASSERT_GT(lateCol, 0u);
    EXPECT_EQ(rows[1][lateCol], "0");  // before it existed
    EXPECT_EQ(rows[2][lateCol], "4");
}

TEST(IntervalStats, WriteCsvDeterministic)
{
    auto build = [] {
        obs::MetricsRegistry registry;
        obs::IntervalStats stats;
        registry.counter("b.two") += 2;
        registry.counter("a.one") += 1;
        registry.gauge("g").set(0.25);
        stats.snapshot(1.0, registry);
        registry.counter("a.one") += 3;
        stats.snapshot(2.0, registry);
        std::ostringstream os;
        stats.writeCsv(os);
        return os.str();
    };
    std::string first = build();
    EXPECT_EQ(first, build());
    // Header is name-sorted after time_s.
    auto rows = analysis::parseCsv(first);
    ASSERT_GE(rows[0].size(), 4u);
    EXPECT_EQ(rows[0][0], "time_s");
    EXPECT_EQ(rows[0][1], "a.one");
    EXPECT_EQ(rows[0][2], "b.two");
}

TEST(IntervalStats, HistogramCountSortsAfterDottedCounter)
{
    // The registry visits "x" (as "x::count") before "x.y", but
    // "x.y" < "x::count" ('.' < ':'): visit order is not column order.
    obs::MetricsRegistry registry;
    obs::Histogram &h = registry.histogram("x", 0.0, 10.0, 2);
    obs::Counter &c = registry.counter("x.y");
    registry.gauge("w").set(0.5);
    obs::IntervalStats stats;
    for (int i = 1; i <= 3; ++i) {
        for (int k = 0; k < i; ++k)
            h.add(1.0);
        c += static_cast<std::uint64_t>(10 * i);
        stats.snapshot(static_cast<double>(i), registry);
    }
    EXPECT_EQ(csvOf(stats),
              "time_s,w,x.y,x::count\n"
              "1.000000,0.500000,10,1\n"
              "2.000000,0.500000,20,2\n"
              "3.000000,0.500000,30,3\n");
}

TEST(IntervalStats, MetricRegisteredMidRunSortingFirst)
{
    obs::MetricsRegistry registry;
    obs::Counter &m = registry.counter("m");
    obs::IntervalStats stats;
    m += 1;
    stats.snapshot(1.0, registry);
    m += 2;
    stats.snapshot(2.0, registry);
    // Both sort before "m": every earlier row gains two 0 cells in
    // front, and m keeps its delta baseline across the re-layout.
    registry.counter("a") += 5;
    registry.gauge("b").set(1.25);
    m += 4;
    stats.snapshot(3.0, registry);
    m += 8;
    stats.snapshot(4.0, registry);
    EXPECT_EQ(csvOf(stats),
              "time_s,a,b,m\n"
              "1.000000,0,0.000000,1\n"
              "2.000000,0,0.000000,2\n"
              "3.000000,5,1.250000,4\n"
              "4.000000,0,1.250000,8\n");
}

TEST(IntervalStats, CopyExtendsAgainstAnotherRegistry)
{
    // What a warmup snapshot does: copy the stats at the boundary,
    // then continue the copy against a rebuilt registry holding the
    // restored values.  It must write what one uninterrupted run
    // writes, and leave the copied-from stats untouched.
    auto registerAll = [](obs::MetricsRegistry &r) {
        (void)r.counter("c");
        (void)r.gauge("g");
        (void)r.logHistogram("lat", 1e-3, 10.0, 0.01);
    };
    auto step = [](obs::MetricsRegistry &r, obs::IntervalStats &stats,
                   int i, bool extra) {
        // "b.extra" sorts between the columns already laid out.
        if (extra && i == 4)
            r.counter("b.extra") += 7;
        r.counter("c") += static_cast<std::uint64_t>(i);
        r.gauge("g").set(0.25 * i);
        for (int k = 0; k < i; ++k)
            r.logHistogram("lat", 1e-3, 10.0, 0.01).add(0.5);
        stats.snapshot(static_cast<double>(i), r);
    };

    obs::MetricsRegistry warm;
    registerAll(warm);
    obs::IntervalStats warmStats;
    for (int i = 1; i <= 2; ++i)
        step(warm, warmStats, i, false);
    const obs::IntervalStats boundary = warmStats;
    const std::string atBoundary = csvOf(boundary);

    for (bool extra : {false, true}) {
        SCOPED_TRACE(extra ? "a metric the warmup lacked"
                           : "the warmup's metric set");
        obs::MetricsRegistry whole;
        registerAll(whole);
        obs::IntervalStats uninterrupted;
        for (int i = 1; i <= 5; ++i)
            step(whole, uninterrupted, i, extra);

        obs::MetricsRegistry rebuilt;
        registerAll(rebuilt);
        rebuilt.restoreValues(warm.saveValues());
        obs::IntervalStats branch = boundary;
        for (int i = 3; i <= 5; ++i)
            step(rebuilt, branch, i, extra);

        EXPECT_EQ(branch.rows(), 5u);
        EXPECT_EQ(csvOf(branch), csvOf(uninterrupted));
        EXPECT_EQ(csvOf(boundary), atBoundary);
    }
}

TEST(IntervalStats, CellsMatchPrintfByteForByte)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // Integral values below 2^53 in magnitude take the integer fast
    // path; -0.0, +-2^53 and beyond, and non-finite values do not.
    const std::vector<double> values = {
        -0.0, 0.5,  1.5, 2.5, 9007199254740993.0, 1e300,
        inf,  -inf, nan, -nan, 5e-324, -2.5, 0.0000005, 123.4567895,
        0.0, 1.0, -1.0, 9007199254740991.0, -9007199254740991.0,
        9007199254740992.0, -9007199254740992.0, 123456789.0, 1e20};

    obs::MetricsRegistry gauges;
    obs::Gauge &v = gauges.gauge("v");
    obs::IntervalStats stats;
    std::string expected = "time_s,v\n";
    for (std::size_t i = 0; i < values.size(); ++i) {
        double t = 0.5 + static_cast<double>(i);
        v.set(values[i]);
        stats.snapshot(t, gauges);
        expected += printfFixed("%.6f", t) + "," +
            printfFixed("%.6f", values[i]) + "\n";
    }
    EXPECT_EQ(csvOf(stats), expected);

    // A column is formatted by the kind it was last seen with: seen
    // as a counter next, every earlier cell prints as a count.
    obs::MetricsRegistry counters;
    (void)counters.counter("v");
    stats.snapshot(1e6, counters);
    expected = "time_s,v\n";
    for (std::size_t i = 0; i < values.size(); ++i) {
        expected += printfFixed("%.6f", 0.5 + static_cast<double>(i)) +
            "," + printfFixed("%.0f", values[i]) + "\n";
    }
    expected += printfFixed("%.6f", 1e6) + ",0\n";
    EXPECT_EQ(csvOf(stats), expected);
}

} // namespace
