#include "obs/interval_stats.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "analysis/csv.hh"
#include "core/contracts.hh"

namespace polca::obs {

namespace {

/**
 * Write @p v as printf's `%.<precision>f` into [first, last) and
 * return the end.  std::to_chars with chars_format::fixed and a
 * precision is specified as printf with that conversion, byte for
 * byte: "-0", "inf", "-nan" and ties rounded to even included.
 */
char *
toCharsFixed(char *first, char *last, double v, int precision)
{
    auto [end, ec] = std::to_chars(first, last, v,
                                   std::chars_format::fixed, precision);
    POLCA_ASSERT(ec == std::errc(), "formatting ", v, " overflowed");
    return end;
}

/** toCharsFixed() as a string: the reference the fast path checks
 *  itself against. */
[[maybe_unused]] std::string
fixedString(double v, int precision)
{
    char buf[320];
    return {buf, toCharsFixed(buf, buf + sizeof(buf), v, precision)};
}

/**
 * Append @p v formatted as printf's `%.<precision>f`.  Almost every
 * cell is an integral count, so an integral @p v below 2^53 in
 * magnitude (the conversion to int64 is exact) prints through integer
 * to_chars plus a zero fraction.  Everything else takes toCharsFixed():
 * -0.0 (it prints "-0"), fractions, |v| >= 2^53, and infinities and
 * NaN, for which the magnitude test is false.
 */
void
appendFixed(std::string &out, double v, int precision)
{
    // "%.6f" of the largest double: sign, 309 digits, point, 6.
    char buf[320];
    bool integral = std::fabs(v) < 0x1p53 && v == std::trunc(v) &&
        !(v == 0.0 && std::signbit(v));
    if (!integral) {
        out.append(buf, toCharsFixed(buf, buf + sizeof(buf), v, precision));
        return;
    }
    char *end = std::to_chars(buf, buf + sizeof(buf),
                              static_cast<std::int64_t>(v))
                    .ptr;
    if (precision > 0) {
        *end++ = '.';
        end = std::fill_n(end, precision, '0');
    }
    POLCA_DCHECK(std::string_view(buf, end) == fixedString(v, precision),
                 "integral fast path printed ", std::string_view(buf, end),
                 " for ", v, " at precision ", precision, ", to_chars ",
                 fixedString(v, precision));
    out.append(buf, end);
}

} // namespace

std::size_t
IntervalStats::columnOf(const std::string &name) const
{
    auto it = std::lower_bound(
        columns_.begin(), columns_.end(), name,
        [](const Column &c, const std::string &n) { return c.name < n; });
    return it != columns_.end() && it->name == name
        ? static_cast<std::size_t>(it - columns_.begin())
        : columns_.size();
}

void
IntervalStats::relayout(const MetricsRegistry &registry)
{
    std::vector<std::pair<std::string, ScalarKind>> seen;
    registry.visitScalars(
        [&](const std::string &name, ScalarKind kind, double) {
            seen.emplace_back(name, kind);
        });

    // Visit order is not column order: a histogram "x" is visited
    // as "x::count" before a counter "x.y", which sorts first.  A
    // name visited twice (a histogram "x" beside a counter named
    // "x::count") shares one column.
    std::vector<Column> columns = columns_;
    for (const auto &[name, kind] : seen) {
        if (columnOf(name) == columns_.size())
            columns.push_back({name, kind, 0.0});
    }
    std::sort(columns.begin(), columns.end(),
              [](const Column &a, const Column &b) {
                  return a.name < b.name;
              });
    columns.erase(std::unique(columns.begin(), columns.end(),
                              [](const Column &a, const Column &b) {
                                  return a.name == b.name;
                              }),
                  columns.end());

    std::vector<Column> old = std::exchange(columns_, std::move(columns));
    if (columns_.size() != old.size()) {
        // Re-lay the earlier rows out, 0 in every new column.
        std::vector<double> cells(rows() * columns_.size(), 0.0);
        for (std::size_t c = 0; c < old.size(); ++c) {
            std::size_t to = columnOf(old[c].name);
            for (std::size_t r = 0; r < rows(); ++r) {
                cells[r * columns_.size() + to] =
                    cells_[r * old.size() + c];
            }
        }
        cells_ = std::move(cells);
    }

    visits_.clear();
    for (const auto &[name, kind] : seen)
        visits_.push_back({columnOf(name), kind});
}

void
IntervalStats::snapshot(double timeS, const MetricsRegistry &registry)
{
    if (!timesS_.empty()) {
        POLCA_CHECK(timeS >= timesS_.back(),
                    "snapshot time ", timeS,
                    " precedes last snapshot at ", timesS_.back());
        // The end-of-run partial snapshot coincides with the last
        // periodic firing when the cadence divides the duration.
        if (timeS == timesS_.back())
            return;
    }

    // Read every value, checking the cached visit -> column map by
    // name as we go.
    std::vector<double> values;
    values.reserve(visits_.size());
    bool cached = true;
    registry.visitScalars(
        [&](const std::string &name, ScalarKind kind, double value) {
            std::size_t i = values.size();
            if (cached &&
                (i >= visits_.size() || visits_[i].kind != kind ||
                 columns_[visits_[i].column].name != name))
                cached = false;
            POLCA_DCHECK(!cached || visits_[i].column == columnOf(name),
                         "interval stats: visit ", i, " ('", name,
                         "') cached at column ", visits_[i].column,
                         ", lookup by name gives ", columnOf(name));
            values.push_back(value);
        });
    if (!cached || values.size() != visits_.size())
        relayout(registry);
    POLCA_ASSERT(visits_.size() == values.size(), "interval stats: ",
                 values.size(), " scalars visited, ", visits_.size(),
                 " mapped");

    // Counters and histogram counts: the per-interval delta against
    // an implicit 0 baseline.  Gauges: the sample.  A column this
    // visit did not reach reads 0.
    const std::size_t width = columns_.size();
    cells_.resize(cells_.size() + width, 0.0);
    double *row = cells_.data() + cells_.size() - width;
    for (std::size_t i = 0; i < values.size(); ++i) {
        const Visit &visit = visits_[i];
        Column &column = columns_[visit.column];
        column.kind = visit.kind;
        if (visit.kind == ScalarKind::Gauge) {
            row[visit.column] = values[i];
        } else {
            row[visit.column] = values[i] - column.lastCumulative;
            column.lastCumulative = values[i];
        }
    }
    timesS_.push_back(timeS);
}

void
IntervalStats::writeCsv(std::ostream &os) const
{
    std::string out = "time_s";
    for (const Column &column : columns_) {
        out += ',';
        out += analysis::escapeCsvField(column.name);
    }
    out += '\n';

    constexpr std::size_t flushBytes = std::size_t{1} << 16;
    const std::size_t width = columns_.size();
    for (std::size_t r = 0; r < rows(); ++r) {
        appendFixed(out, timesS_[r], 6);
        const double *row = cells_.data() + r * width;
        for (std::size_t c = 0; c < width; ++c) {
            out += ',';
            appendFixed(out, row[c],
                        columns_[c].kind == ScalarKind::Gauge ? 6 : 0);
        }
        out += '\n';
        if (out.size() >= flushBytes) {
            os.write(out.data(), static_cast<std::streamsize>(out.size()));
            out.clear();
        }
    }
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

void
IntervalStats::clear()
{
    columns_.clear();
    timesS_.clear();
    cells_.clear();
    visits_.clear();
}

} // namespace polca::obs
