#include "obs/metrics.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "analysis/csv.hh"
#include "sim/logging.hh"

namespace polca::obs {

namespace {

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

std::string
formatCount(std::uint64_t v)
{
    return std::to_string(v);
}

/** Compact bucket-bound format: "12.5", "1e+06", "inf". */
std::string
formatBound(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
bucketLabel(const std::string &name, std::size_t b, double lo,
            double hi)
{
    return name + "::bucket" + std::to_string(b) + "[" +
        formatBound(lo) + "," + formatBound(hi) + ")";
}

} // namespace

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0)
{
    if (buckets == 0 || !(hi > lo))
        sim::panic("obs::Histogram: bad shape [", lo, ", ", hi,
                   ") x ", buckets);
}

void
Histogram::add(double value)
{
    double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    auto bucket = static_cast<std::int64_t>((value - lo_) / width);
    bucket = std::clamp<std::int64_t>(
        bucket, 0, static_cast<std::int64_t>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(bucket)];
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
}

Counter &
MetricsRegistry::counter(const std::string &name,
                         const std::string &desc)
{
    Entry &entry = entries_[name];
    if (entry.gauge || entry.histogram || entry.logHistogram)
        sim::panic("MetricsRegistry: '", name,
                   "' already registered with another kind");
    if (!entry.counter) {
        entry.counter = std::make_unique<Counter>();
        entry.desc = desc;
    }
    return *entry.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &desc)
{
    Entry &entry = entries_[name];
    if (entry.counter || entry.histogram || entry.logHistogram)
        sim::panic("MetricsRegistry: '", name,
                   "' already registered with another kind");
    if (!entry.gauge) {
        entry.gauge = std::make_unique<Gauge>();
        entry.desc = desc;
    }
    return *entry.gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name, double lo,
                           double hi, std::size_t buckets,
                           const std::string &desc)
{
    Entry &entry = entries_[name];
    if (entry.counter || entry.gauge || entry.logHistogram)
        sim::panic("MetricsRegistry: '", name,
                   "' already registered with another kind");
    if (!entry.histogram) {
        entry.histogram = std::make_unique<Histogram>(lo, hi, buckets);
        entry.desc = desc;
        entry.countName = name;
        entry.countName += "::count";
    } else if (entry.histogram->lo() != lo ||
               entry.histogram->hi() != hi ||
               entry.histogram->buckets() != buckets) {
        sim::panic("MetricsRegistry: histogram '", name,
                   "' re-registered with a different shape");
    }
    return *entry.histogram;
}

LogHistogram &
MetricsRegistry::logHistogram(const std::string &name,
                              double minValue, double maxValue,
                              double relativeError,
                              const std::string &desc)
{
    Entry &entry = entries_[name];
    if (entry.counter || entry.gauge || entry.histogram)
        sim::panic("MetricsRegistry: '", name,
                   "' already registered with another kind");
    if (!entry.logHistogram) {
        entry.logHistogram = std::make_unique<LogHistogram>(
            minValue, maxValue, relativeError);
        entry.desc = desc;
        entry.countName = name;
        entry.countName += "::count";
    } else if (entry.logHistogram->minValue() != minValue ||
               entry.logHistogram->maxValue() != maxValue ||
               entry.logHistogram->relativeError() != relativeError) {
        sim::panic("MetricsRegistry: log histogram '", name,
                   "' re-registered with a different shape");
    }
    return *entry.logHistogram;
}

bool
MetricsRegistry::has(const std::string &name) const
{
    return entries_.count(name) > 0;
}

void
MetricsRegistry::reset()
{
    for (auto &[name, entry] : entries_) {
        if (entry.counter)
            entry.counter->reset();
        if (entry.gauge)
            entry.gauge->reset();
        if (entry.histogram)
            entry.histogram->reset();
        if (entry.logHistogram)
            entry.logHistogram->reset();
    }
}

MetricsRegistry::Values
MetricsRegistry::saveValues() const
{
    Values values;
    for (const auto &[name, entry] : entries_) {
        if (entry.counter) {
            values.counters.emplace(name, entry.counter->value());
        } else if (entry.gauge) {
            if (!entry.gauge->hasSource() &&
                !entry.gauge->isVolatile()) {
                values.gauges.emplace(name, entry.gauge->value());
            }
        } else if (entry.histogram) {
            values.histograms.emplace(name, *entry.histogram);
        } else if (entry.logHistogram) {
            values.logHistograms.emplace(name, *entry.logHistogram);
        }
    }
    return values;
}

void
MetricsRegistry::restoreValues(const Values &values)
{
    for (const auto &[name, value] : values.counters) {
        auto it = entries_.find(name);
        if (it == entries_.end() || !it->second.counter)
            sim::panic("MetricsRegistry: restoring counter '", name,
                       "' that this registry never registered");
        it->second.counter->restore(value);
    }
    for (const auto &[name, value] : values.gauges) {
        auto it = entries_.find(name);
        if (it == entries_.end() || !it->second.gauge)
            sim::panic("MetricsRegistry: restoring gauge '", name,
                       "' that this registry never registered");
        it->second.gauge->restoreValue(value);
    }
    for (const auto &[name, h] : values.histograms) {
        auto it = entries_.find(name);
        if (it == entries_.end() || !it->second.histogram)
            sim::panic("MetricsRegistry: restoring histogram '", name,
                       "' that this registry never registered");
        Histogram &mine = *it->second.histogram;
        if (mine.lo() != h.lo() || mine.hi() != h.hi() ||
            mine.buckets() != h.buckets()) {
            sim::panic("MetricsRegistry: histogram '", name,
                       "' restored with a different shape");
        }
        mine = h;
    }
    for (const auto &[name, h] : values.logHistograms) {
        auto it = entries_.find(name);
        if (it == entries_.end() || !it->second.logHistogram)
            sim::panic("MetricsRegistry: restoring log histogram '",
                       name, "' that this registry never registered");
        if (!it->second.logHistogram->sameShape(h)) {
            sim::panic("MetricsRegistry: log histogram '", name,
                       "' restored with a different shape");
        }
        *it->second.logHistogram = h;
    }
}

void
MetricsRegistry::freezeGauges()
{
    for (auto &[name, entry] : entries_) {
        if (entry.gauge)
            entry.gauge->freeze();
    }
}

std::vector<std::array<std::string, 3>>
MetricsRegistry::flatten() const
{
    // std::map iteration is name-sorted, which makes both dump
    // formats deterministic for a fixed set of registrations.
    std::vector<std::array<std::string, 3>> rows;
    for (const auto &[name, entry] : entries_) {
        if (entry.counter) {
            rows.push_back({name, "counter",
                            formatCount(entry.counter->value())});
        } else if (entry.gauge) {
            if (entry.gauge->isVolatile())
                continue;
            rows.push_back({name, "gauge",
                            formatDouble(entry.gauge->value())});
        } else if (entry.histogram) {
            const Histogram &h = *entry.histogram;
            rows.push_back({name + "::count", "histogram",
                            formatCount(h.count())});
            rows.push_back({name + "::mean", "histogram",
                            formatDouble(h.mean())});
            if (h.count() > 0) {
                rows.push_back({name + "::min", "histogram",
                                formatDouble(h.min())});
                rows.push_back({name + "::max", "histogram",
                                formatDouble(h.max())});
            }
            double width =
                (h.hi() - h.lo()) / static_cast<double>(h.buckets());
            for (std::size_t b = 0; b < h.buckets(); ++b) {
                double lo = h.lo() + width * static_cast<double>(b);
                rows.push_back({bucketLabel(name, b, lo, lo + width),
                                "histogram",
                                formatCount(h.bucketCount(b))});
            }
        } else if (entry.logHistogram) {
            const LogHistogram &h = *entry.logHistogram;
            rows.push_back({name + "::count", "loghist",
                            formatCount(h.count())});
            rows.push_back({name + "::mean", "loghist",
                            formatDouble(h.mean())});
            if (h.count() > 0) {
                rows.push_back({name + "::min", "loghist",
                                formatDouble(h.min())});
                rows.push_back({name + "::max", "loghist",
                                formatDouble(h.max())});
                rows.push_back({name + "::p50", "loghist",
                                formatDouble(h.p50())});
                rows.push_back({name + "::p90", "loghist",
                                formatDouble(h.p90())});
                rows.push_back({name + "::p95", "loghist",
                                formatDouble(h.p95())});
                rows.push_back({name + "::p99", "loghist",
                                formatDouble(h.p99())});
                rows.push_back({name + "::p99.9", "loghist",
                                formatDouble(h.p999())});
            }
            // Log histograms can have hundreds of buckets; only the
            // occupied ones are informative, and the bounds in the
            // label keep sparse dumps self-describing.
            for (std::size_t b = 0; b < h.buckets(); ++b) {
                if (h.bucketCount(b) == 0)
                    continue;
                rows.push_back({bucketLabel(name, b, h.bucketLo(b),
                                            h.bucketHi(b)),
                                "loghist",
                                formatCount(h.bucketCount(b))});
            }
        }
    }
    return rows;
}

void
MetricsRegistry::dump(std::ostream &os) const
{
    // Descriptions ride along as trailing comments, gem5-style.
    auto rows = flatten();
    for (const auto &row : rows) {
        std::string line = row[0];
        if (line.size() < 48)
            line.append(48 - line.size(), ' ');
        line += ' ';
        line += row[2];
        // Attach the description of the base name, if any.
        std::string base = row[0].substr(0, row[0].find("::"));
        auto it = entries_.find(base);
        if (it != entries_.end() && !it->second.desc.empty() &&
            row[0] == base) {
            line += "  # ";
            line += it->second.desc;
        }
        os << line << '\n';
    }
}

void
MetricsRegistry::visitScalars(
    const std::function<void(const std::string &, ScalarKind,
                             double)> &fn) const
{
    for (const auto &[name, entry] : entries_) {
        if (entry.counter) {
            fn(name, ScalarKind::Counter,
               static_cast<double>(entry.counter->value()));
        } else if (entry.gauge) {
            if (!entry.gauge->isVolatile())
                fn(name, ScalarKind::Gauge, entry.gauge->value());
        } else if (entry.histogram) {
            fn(entry.countName, ScalarKind::HistogramCount,
               static_cast<double>(entry.histogram->count()));
        } else if (entry.logHistogram) {
            fn(entry.countName, ScalarKind::HistogramCount,
               static_cast<double>(entry.logHistogram->count()));
        }
    }
}

void
MetricsRegistry::dumpCsv(std::ostream &os) const
{
    analysis::CsvWriter writer(os);
    writer.header({"name", "kind", "value"});
    for (const auto &row : flatten())
        writer.rowStrings({row[0], row[1], row[2]});
}

} // namespace polca::obs
