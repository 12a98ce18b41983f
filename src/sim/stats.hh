/**
 * @file
 * Statistics primitives: running accumulators and exact-percentile
 * samplers used throughout the models and the POLCA evaluation.
 */

#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace polca::sim {

/**
 * Streaming mean/variance/min/max accumulator (Welford's algorithm).
 * O(1) memory; suitable for power samples over week-long runs.
 */
class Accumulator
{
  public:
    /** Add one observation. */
    void add(double value);

    /** Merge another accumulator into this one. */
    void merge(const Accumulator &other);

    /** Drop all observations. */
    void reset();

    std::size_t count() const { return count_; }
    double sum() const { return mean_ * static_cast<double>(count_); }

    /** Mean; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance; 0 with fewer than 2 observations. */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Minimum observation; +inf when empty. */
    double min() const { return min_; }

    /** Maximum observation; -inf when empty. */
    double max() const { return max_; }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Stores every observation for exact quantiles (p50/p99/max latency
 * reporting).  A quantile query finds its order statistics by
 * selection (std::nth_element), O(n) per query, and leaves the
 * observations partially reordered.
 */
class Sampler
{
  public:
    /** Add one observation. */
    void add(double value);

    /** Drop all observations. */
    void reset();

    std::size_t count() const { return values_.size(); }
    bool empty() const { return values_.empty(); }

    double mean() const;
    double min() const;
    double max() const;

    /**
     * Exact quantile with linear interpolation between order
     * statistics.  @p q in [0, 1]; querying an empty sampler is a
     * caller error.  Reorders values().
     */
    double quantile(double q) const;

    /** Convenience aliases. */
    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    /** Read-only access to the raw observations: in insertion order
     *  until the first quantile query, unspecified after it. */
    const std::vector<double> &values() const { return values_; }

  private:
    mutable std::vector<double> values_;
};

} // namespace polca::sim

