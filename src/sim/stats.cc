#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "core/contracts.hh"

namespace polca::sim {

void
Accumulator::add(double value)
{
    ++count_;
    double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

void
Accumulator::merge(const Accumulator &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    double n1 = static_cast<double>(count_);
    double n2 = static_cast<double>(other.count_);
    double delta = other.mean_ - mean_;
    double n = n1 + n2;
    mean_ += delta * n2 / n;
    m2_ += other.m2_ + delta * delta * n1 * n2 / n;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
Accumulator::reset()
{
    *this = Accumulator();
}

double
Accumulator::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

void
Sampler::add(double value)
{
    values_.push_back(value);
}

void
Sampler::reset()
{
    values_.clear();
}

double
Sampler::mean() const
{
    if (values_.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values_)
        sum += v;
    return sum / static_cast<double>(values_.size());
}

double
Sampler::min() const
{
    POLCA_CHECK(!values_.empty(), "min on empty sampler");
    return *std::min_element(values_.begin(), values_.end());
}

double
Sampler::max() const
{
    POLCA_CHECK(!values_.empty(), "max on empty sampler");
    return *std::max_element(values_.begin(), values_.end());
}

namespace {

/** The interpolated quantile of @p values by the reference method:
 *  a sorted copy, indexed. */
[[maybe_unused]] double
sortedQuantile(std::vector<double> values, std::size_t lower,
               double frac)
{
    std::sort(values.begin(), values.end());
    if (lower + 1 >= values.size())
        return values.back();
    return values[lower] * (1.0 - frac) + values[lower + 1] * frac;
}

/** Equal, or both NaN (an interpolation across an infinity). */
[[maybe_unused]] bool
sameQuantile(double a, double b)
{
    return a == b || (std::isnan(a) && std::isnan(b));
}

} // namespace

double
Sampler::quantile(double q) const
{
    POLCA_CHECK(!values_.empty(), "quantile on empty sampler");
    POLCA_CHECK(q >= 0.0 && q <= 1.0, "q=", q, " outside [0,1]");

    double pos = q * static_cast<double>(values_.size() - 1);
    std::size_t lower = static_cast<std::size_t>(pos);
    double frac = pos - static_cast<double>(lower);
    // The lower order statistic by selection; everything after it is
    // no smaller, so its successor is the minimum of the rest.
    auto nth = values_.begin() + static_cast<std::ptrdiff_t>(lower);
    std::nth_element(values_.begin(), nth, values_.end());
    double result = lower + 1 >= values_.size()
        ? *nth
        : *nth * (1.0 - frac) +
            *std::min_element(nth + 1, values_.end()) * frac;
    POLCA_DCHECK(
        sameQuantile(result, sortedQuantile(values_, lower, frac)),
        "selected quantile ", result, " at q=", q,
        " differs from the sorted-copy quantile ",
        sortedQuantile(values_, lower, frac));
    return result;
}

} // namespace polca::sim
