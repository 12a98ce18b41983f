/**
 * @file
 * gem5-stats-flavoured metrics registry.
 *
 * Components register named counters, gauges, and fixed-bucket
 * histograms once (get-or-create: registering the same name twice
 * returns the same object, so per-server stats aggregate naturally)
 * and then update them through plain pointers — an update is an
 * integer add, cheap enough to stay on in every run.
 *
 * Dumps are deterministic: entries are stored name-sorted and all
 * values derive from simulated state, so two runs with the same seed
 * produce byte-identical dumps.  Wall-clock-derived gauges (e.g.
 * events/sec) must be marked volatile; they are skipped by dump().
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/log_histogram.hh"

namespace polca::obs {

/** Monotonic event count. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    Counter &operator++()
    {
        ++value_;
        return *this;
    }
    Counter &operator+=(std::uint64_t n)
    {
        value_ += n;
        return *this;
    }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    /** Adopt a snapshotted count (snapshot support). */
    void restore(std::uint64_t v) { value_ = v; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Point-in-time value.  Either set explicitly or backed by a source
 * callback evaluated at dump time (gem5 functor stats); sources are
 * snapshotted into plain values by MetricsRegistry::freezeGauges()
 * so a dump never calls into destroyed components.
 */
class Gauge
{
  public:
    using Source = std::function<double()>;

    void set(double v) { value_ = v; }
    void setSource(Source source) { source_ = std::move(source); }

    double value() const { return source_ ? source_() : value_; }

    /** Evaluate the source once and drop it. */
    void freeze()
    {
        if (source_) {
            value_ = source_();
            source_ = nullptr;
        }
    }

    /**
     * Volatile gauges hold wall-clock-derived values (events/sec);
     * dump() skips them so metric dumps stay reproducible across
     * runs with the same seed.
     */
    void setVolatile(bool v) { volatile_ = v; }
    bool isVolatile() const { return volatile_; }

    /** @return true when a live source callback is attached. */
    bool hasSource() const { return static_cast<bool>(source_); }

    /**
     * Zero the cached value.  A source-backed gauge is a *view* of
     * live component state, not an accumulator, so reset() leaves
     * the source attached and value() keeps reporting the live
     * reading — zeroing the shadowed cache would silently resurface
     * a stale 0.0 after freeze().  Interval snapshots therefore
     * treat every gauge as a point sample, never as a delta.
     */
    void reset()
    {
        if (!source_)
            value_ = 0.0;
    }

    /** Adopt a snapshotted value; a no-op on source-backed gauges,
     *  which are live views of (restored) component state. */
    void restoreValue(double v)
    {
        if (!source_)
            value_ = v;
    }

  private:
    double value_ = 0.0;
    Source source_;
    bool volatile_ = false;
};

/**
 * Fixed-bucket histogram over [lo, hi); out-of-range observations
 * clamp to the edge buckets.  Also tracks count/sum/min/max.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    void add(double value);
    void reset();

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    std::size_t buckets() const { return counts_.size(); }
    std::uint64_t bucketCount(std::size_t b) const
    {
        return counts_.at(b);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }
    double min() const { return min_; }
    double max() const { return max_; }

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Name-keyed store of the three metric kinds.  Names are dotted
 * paths ("manager.cap_commands"); the registry must outlive every
 * component holding a pointer into it.
 */
class MetricsRegistry
{
  public:
    /** Get-or-create; panics if @p name exists with another kind. */
    [[nodiscard]] Counter &counter(const std::string &name,
                     const std::string &desc = "");
    [[nodiscard]] Gauge &gauge(const std::string &name,
                               const std::string &desc = "");

    /** Get-or-create; panics on kind or shape mismatch. */
    [[nodiscard]] Histogram &histogram(const std::string &name,
                                       double lo, double hi,
                         std::size_t buckets,
                         const std::string &desc = "");

    /** Get-or-create; panics on kind or shape mismatch. */
    [[nodiscard]] LogHistogram &
    logHistogram(const std::string &name, double minValue,
                 double maxValue, double relativeError,
                 const std::string &desc = "");

    [[nodiscard]] bool has(const std::string &name) const;
    [[nodiscard]] std::size_t size() const { return entries_.size(); }

    /** Zero every metric (registrations and gauge sources kept). */
    void reset();

    /**
     * Value snapshot of every metric, by name (snapshot support).
     * Counters and (log) histograms are captured whole; gauges only
     * when they hold a plain non-volatile value — source-backed
     * gauges are live views of component state and volatile gauges
     * are wall-clock-derived, so neither belongs in a snapshot.
     */
    struct Values
    {
        std::map<std::string, std::uint64_t> counters;
        std::map<std::string, double> gauges;
        std::map<std::string, Histogram> histograms;
        std::map<std::string, LogHistogram> logHistograms;
    };

    /** Capture every metric's current value (snapshot support). */
    [[nodiscard]] Values saveValues() const;

    /**
     * Restore snapshotted values into the already-registered metrics
     * of this registry.  Every saved name must exist here with the
     * same kind and shape (a branch registers the identical metric
     * set by rebuilding from the same configuration); extra
     * registrations are left untouched.
     */
    void restoreValues(const Values &values);

    /** Snapshot all gauge sources into plain values (call before the
     *  components backing the sources are destroyed). */
    void freezeGauges();

    /**
     * gem5-style text dump, name-sorted, one line per scalar.
     * Histograms expand to name::count/mean/min/max plus
     * self-describing name::bucketN[lo,hi) lines (bounds in the
     * name, count as the value); log histograms additionally emit
     * name::p50/p90/p95/p99/p99.9 percentile lines and skip empty
     * buckets.  Volatile gauges are skipped (reproducibility).
     */
    void dump(std::ostream &os) const;

    /** The same scalars as CSV: name,kind,value. */
    void dumpCsv(std::ostream &os) const;

    /** How a scalar reported by visitScalars() accumulates. */
    enum class ScalarKind
    {
        Counter,        ///< cumulative, monotone (delta-able)
        Gauge,          ///< point-in-time sample
        HistogramCount, ///< cumulative sample count of a histogram
    };

    /**
     * Visit every non-volatile scalar: counters and the "::count" of
     * each (log) histogram as cumulative values, gauges as point
     * samples.  The interval-stats snapshotter is the intended
     * consumer; unlike dump() this reports raw doubles.
     *
     * Entries are walked in name order, which is not the order of
     * the names passed to @p fn: a histogram "x" is reported as
     * "x::count" at the position of "x", so before a counter "x.y",
     * although "x.y" < "x::count" ('.' < ':').  Each name passed to
     * @p fn is a string the registry owns, built at registration.
     */
    void visitScalars(
        const std::function<void(const std::string &name,
                                 ScalarKind kind, double value)> &fn)
        const;

  private:
    struct Entry
    {
        std::string desc;
        std::string countName;  ///< "<name>::count" for histograms
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
        std::unique_ptr<LogHistogram> logHistogram;
    };

    /** Flattened (name, kind, value-string) rows for both dumps. */
    std::vector<std::array<std::string, 3>> flatten() const;

    std::map<std::string, Entry> entries_;
};

} // namespace polca::obs

