/**
 * @file
 * Domain manager: out-of-band aggregation of one power domain's draw
 * on a periodic cadence.  For a row (PDU) domain this is the paper's
 * 2 s row telemetry (Table 1) that POLCA caps from, because the row
 * is where statistical multiplexing of prompt/token phases pays off
 * (Insight 9).  The same machinery aggregates racks, rows, and whole
 * sites: a non-leaf cluster::PowerDomain with a telemetry interval
 * owns a DomainManager whose one source is the domain's own reading
 * (the left-to-right sum of its children's), so readings roll up the
 * tree with each level sampling on its own cadence.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/observability.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/timeseries.hh"

namespace polca::telemetry {

/**
 * Periodically sums power across registered sources and notifies
 * listeners.  Sources are polled at reading time (step-accurate for
 * the 2 s cadence).
 */
class DomainManager
{
  public:
    using PowerSource = std::function<double()>;
    using Listener = std::function<void(sim::Tick, double)>;

    /**
     * Hook applied to every periodic reading before it is recorded
     * and delivered.  Returning std::nullopt drops the reading
     * (counted in droppedReadings()); returning a value replaces the
     * measured watts (sensor corruption).  One hook at a time; the
     * fault-injection subsystem (faults::FaultInjector) composes its
     * scenarios into a single hook.
     */
    using FaultHook =
        std::function<std::optional<double>(sim::Tick, double)>;

    DomainManager(sim::Simulation &sim,
                  sim::Tick interval = sim::secondsToTicks(2),
                  bool recordSeries = true);

    /**
     * Inject reading dropout: each periodic reading is silently
     * skipped with probability @p probability (OOB telemetry "may
     * sometimes fail", Section 3.3).  Listeners simply do not fire
     * for dropped readings.
     */
    void setDropoutProbability(double probability, sim::Rng rng);

    /** Install (or clear, with an empty function) the fault hook.
     *  Applied after the i.i.d. dropout filter. */
    void setFaultHook(FaultHook hook) { faultHook_ = std::move(hook); }

    /**
     * Register reading delivery/drop/corruption counters and row
     * trace events with @p obs (which must outlive this object).
     * Metric names keep the flat `telemetry.*` namespace the
     * single-row experiments always used.  Null detaches.
     */
    void attachObservability(obs::Observability *obs);

    /**
     * Register this manager's latest reading as the per-domain gauge
     * `<path>.power` (e.g. `site.row3.power`), giving each tree
     * level its own metric namespace.  Composable with
     * attachObservability(); @p obs must outlive this object.
     */
    void attachDomainObservability(obs::Observability *obs,
                                   const std::string &path);

    /** Register a power source (e.g. the owning domain's rolled-up
     *  draw); a reading is the left-to-right sum of the sources. */
    void addSource(PowerSource source);

    /** Register a reading listener (e.g. the POLCA manager). */
    void addListener(Listener listener);

    /** Begin periodic readings; start() after stop() resumes the
     *  periodic schedule (first reading one interval later). */
    void start();

    /** Stop readings. */
    void stop();

    /** @return true while the periodic schedule is active. */
    bool running() const { return task_ != nullptr; }

    /** Sampling interval. */
    sim::Tick interval() const { return interval_; }

    /** Latest domain power reading (0 before the first). */
    double latestReading() const { return latest_; }

    /** Tick of the latest reading. */
    sim::Tick latestReadingTime() const { return latestTime_; }

    /** Full reading history (empty when recording disabled). */
    const sim::TimeSeries &series() const { return series_; }

    /**
     * Pre-size the reading history for a run spanning @p horizon
     * ticks — one sample per interval — so steady-state recording
     * never reallocates mid-run.  No-op when recording is disabled.
     */
    void reserveSeries(sim::Tick horizon);

    /** Take an immediate reading outside the periodic schedule. */
    double readNow();

    /** Readings silently dropped so far. */
    std::uint64_t droppedReadings() const { return dropped_; }

    /** Mutable state at a snapshot boundary: the reading history and
     *  dropout stream plus the periodic task's schedule position.
     *  Sources/listeners/hooks are wiring, reproduced by rebuild. */
    struct State
    {
        double latest = 0.0;
        sim::Tick latestTime = 0;
        std::uint64_t dropped = 0;
        sim::Rng dropoutRng;
        sim::TimeSeries series;
        sim::Simulation::PeriodicTask::State task;
    };

    /** Capture mutable state (snapshot support). */
    [[nodiscard]] State saveState() const;

    /** Restore from a snapshot while the queue has a restore open.
     *  The manager must be start()ed (its build-time event was
     *  discarded by beginRestore) when the saved task was running. */
    void restoreState(const State &state);

  private:
    void sample(sim::Tick now);

    sim::Simulation &sim_;
    // polca-snapshot: skip(interval_, immutable sampling config)
    sim::Tick interval_;
    // polca-snapshot: skip(recordSeries_, immutable recording config)
    bool recordSeries_;
    std::vector<PowerSource> sources_;
    std::vector<Listener> listeners_;
    sim::TimeSeries series_;
    double latest_ = 0.0;
    sim::Tick latestTime_ = 0;
    // polca-snapshot: skip(dropoutProbability_, setup-time config; set before warmup)
    double dropoutProbability_ = 0.0;
    sim::Rng dropoutRng_;
    FaultHook faultHook_;
    std::uint64_t dropped_ = 0;
    std::unique_ptr<sim::Simulation::PeriodicTask> task_;

    obs::TraceRecorder *trace_ = nullptr;
    obs::Counter *deliveredStat_ = nullptr;
    obs::Counter *droppedStat_ = nullptr;
    obs::Counter *corruptedStat_ = nullptr;
    obs::LogHistogram *rowWattsStat_ = nullptr;
};

} // namespace polca::telemetry
