/**
 * @file
 * Shared scaffolding for the reproduction bench binaries: flag
 * parsing (--full for paper-scale horizons, --days/--seed overrides,
 * --csv where a bench exports its series) and uniform experiment
 * headers so output is easy to diff against the paper.
 */

#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>
#include <vector>

#include "sim/logging.hh"
#include "sim/timeseries.hh"
#include "sim/types.hh"

namespace polca::bench {

/** Common bench options. */
struct BenchOptions
{
    bool full = false;           ///< paper-scale horizons
    double days = 0.0;           ///< explicit horizon override
    std::uint64_t seed = 42;
    std::string csvPath;         ///< --csv: series export target

    /** Evaluation horizon: default short, --full = paper scale. */
    sim::Tick
    horizon(double defaultDays, double fullDays) const
    {
        double d = days > 0.0 ? days : (full ? fullDays : defaultDays);
        return sim::secondsToTicks(d * 24.0 * 3600.0);
    }
};

/** Print the option summary after @p description to @p out; --csv
 *  only for a bench that takes it (@p csv). */
inline void
usage(std::FILE *out, const char *description, bool csv)
{
    std::fprintf(out,
                 "%s\n\nOptions:\n"
                 "  --full       paper-scale horizons\n"
                 "  --days <n>   explicit horizon in days (> 0)\n"
                 "  --seed <n>   RNG seed, a non-negative integer "
                 "(default 42)\n%s",
                 description,
                 csv ? "  --csv <f>    export plotted series to a CSV file\n"
                     : "");
}

/**
 * Parse --full, --days <n>, --seed <n>, and --csv <f> when @p csv;
 * exits 0 on --help.  An unknown flag, a missing value, a malformed
 * or non-positive --days or a malformed --seed prints what is wrong
 * and the usage text to stderr and exits 2, so a typo never runs the
 * default horizon.
 */
inline BenchOptions
parseOptions(int argc, char **argv, const char *description, bool csv)
{
    auto reject = [&](const std::string &problem) {
        std::fprintf(stderr, "%s: %s\n\n", argv[0], problem.c_str());
        usage(stderr, description, csv);
        std::exit(2);
    };
    // All of @p text as a number.
    auto parse = [](const std::string &text, auto &out) {
        const char *end = text.data() + text.size();
        auto [stop, error] = std::from_chars(text.data(), end, out);
        return error == std::errc() && stop == end;
    };
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--full") {
            options.full = true;
            continue;
        }
        if (flag == "--help") {
            usage(stdout, description, csv);
            std::exit(0);
        }
        if (flag != "--days" && flag != "--seed" &&
            !(csv && flag == "--csv"))
            reject("unknown flag '" + flag + "'");
        if (i + 1 == argc)
            reject(flag + ": missing value");
        std::string value = argv[++i];
        if (flag == "--csv") {
            options.csvPath = value;
        } else if (flag == "--seed") {
            if (!parse(value, options.seed))
                reject("--seed: expected a non-negative integer, got '" +
                       value + "'");
        } else if (!parse(value, options.days) ||
                   !(options.days > 0.0) || !std::isfinite(options.days)) {
            reject("--days: expected a positive number of days, got '" +
                   value + "'");
        }
    }
    sim::setQuiet(true);
    return options;
}

/** A bench's flags: parseOptions() without --csv. */
inline BenchOptions
parseArgs(int argc, char **argv, const char *description)
{
    return parseOptions(argc, argv, description, false);
}

/** The flags of a bench that exports its plotted series (Figs 6 and
 *  16): parseOptions() with --csv, exportSeriesCsv()'s file. */
inline BenchOptions
parseSeriesArgs(int argc, char **argv, const char *description)
{
    return parseOptions(argc, argv, description, true);
}

/** Print a banner naming the experiment and the paper artifact. */
inline void
banner(const char *artifact, const char *claim)
{
    std::printf("==================================================="
                "=============================\n");
    std::printf("%s\n", artifact);
    std::printf("Paper: %s\n", claim);
    std::printf("==================================================="
                "=============================\n\n");
}

/** Print a paper-vs-measured comparison line. */
inline void
compare(const char *metric, const char *paperValue, double measured,
        const char *unit = "")
{
    std::printf("  %-46s paper: %-14s measured: %.3f%s\n", metric,
                paperValue, measured, unit);
}

/**
 * Export labelled time series as CSV (time_s, <label>...) when the
 * user passed --csv (parseSeriesArgs()).  Series are step-sampled
 * onto a common grid so the file plots directly in any tool.
 */
void exportSeriesCsv(const BenchOptions &options,
                     const std::vector<std::string> &labels,
                     const std::vector<const sim::TimeSeries *> &series,
                     sim::Tick grid = sim::msToTicks(100));

} // namespace polca::bench

