/**
 * @file
 * Sim-time-cadenced registry snapshots (gem5 `dumpresetstats` style).
 *
 * An experiment arms a periodic task (Simulation::every) that calls
 * snapshot() on a fixed sim-time cadence; each snapshot records every
 * non-volatile scalar in the registry.  When the run ends the
 * collected rows are written as one columnar stats_interval.csv:
 *
 *     time_s,dispatcher.completed,manager.cap_commands,...
 *
 * Counters (and histogram sample counts) are reported as per-interval
 * *deltas* — the row at time T covers activity in (T_prev, T] — while
 * gauges are point *samples* at the snapshot instant.  The registry
 * itself is never reset, so the end-of-run cumulative dump is
 * unaffected and the column sums of the delta columns reconcile with
 * it exactly (the final row is a partial interval when the run length
 * is not a multiple of the cadence).
 *
 * Storage is columnar: the name-sorted columns (name, kind, delta
 * baseline), one flat row-major vector of cells and the snapshot
 * times.  A snapshot reaches its cells through a cached map from
 * registry visit index to column, checked by name on every snapshot
 * and rebuilt only when the visit sequence changes (a metric
 * registered mid-run); a new column is then backfilled with 0 in the
 * earlier rows.  Copying the stats (a warmup snapshot does) copies
 * flat vectors.
 *
 * All values derive from simulated state, so same-seed runs produce
 * byte-identical CSVs.
 */

#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace polca::obs {

class IntervalStats
{
  public:
    /**
     * Record one snapshot of @p registry at simulated time @p timeS.
     * Times must be strictly increasing; a snapshot at the same time
     * as the previous one is dropped (the end-of-run partial snapshot
     * coincides with the last periodic one when the cadence divides
     * the duration).
     */
    void snapshot(double timeS, const MetricsRegistry &registry);

    [[nodiscard]] bool empty() const { return timesS_.empty(); }
    [[nodiscard]] std::size_t rows() const { return timesS_.size(); }

    /** Time of the most recent snapshot; -1 when none taken yet. */
    [[nodiscard]] double lastTimeS() const
    {
        return timesS_.empty() ? -1.0 : timesS_.back();
    }

    /**
     * Write the collected snapshots as columnar CSV.  Columns are the
     * name-sorted union of every scalar seen across all snapshots; a
     * metric registered mid-run reports 0 for rows before it existed.
     * Each column is formatted by the kind it was last seen with:
     * gauges as printf's `%.6f`, counts as `%.0f`.
     */
    void writeCsv(std::ostream &os) const;

    /** Drop all collected rows and delta baselines. */
    void clear();

  private:
    using ScalarKind = MetricsRegistry::ScalarKind;

    /** One CSV column after time_s. */
    struct Column
    {
        std::string name;
        ScalarKind kind;             ///< as last seen; picks the format
        double lastCumulative = 0.0; ///< delta baseline (implicit 0)
    };

    /** Where the scalar at one registry visit index lands. */
    struct Visit
    {
        std::size_t column;
        ScalarKind kind;
    };

    /** Rebuild visits_ from @p registry's visit sequence, adding a
     *  column (0 in every earlier row) for each name not seen yet. */
    void relayout(const MetricsRegistry &registry);

    /** Index of the column named @p name; columns_.size() if none. */
    [[nodiscard]] std::size_t columnOf(const std::string &name) const;

    std::vector<Column> columns_;  ///< name-sorted, unique
    std::vector<double> timesS_;   ///< one per row
    std::vector<double> cells_;    ///< rows x columns, row-major
    std::vector<Visit> visits_;    ///< registry visit index -> column
};

} // namespace polca::obs
