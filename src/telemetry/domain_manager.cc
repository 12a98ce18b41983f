#include "telemetry/domain_manager.hh"

#include "core/contracts.hh"
#include "sim/logging.hh"

namespace polca::telemetry {

DomainManager::DomainManager(sim::Simulation &sim, sim::Tick interval,
                             bool recordSeries)
    : sim_(sim), interval_(interval), recordSeries_(recordSeries)
{
    if (interval_ <= 0)
        sim::fatal("DomainManager: non-positive interval");
}

void
DomainManager::addSource(PowerSource source)
{
    POLCA_CHECK(static_cast<bool>(source), "empty power source");
    sources_.push_back(std::move(source));
}

void
DomainManager::addListener(Listener listener)
{
    POLCA_CHECK(static_cast<bool>(listener), "empty listener");
    listeners_.push_back(std::move(listener));
}

void
DomainManager::reserveSeries(sim::Tick horizon)
{
    if (!recordSeries_ || horizon <= 0)
        return;
    series_.reserve(
        static_cast<std::size_t>(horizon / interval_) + 2);
}

void
DomainManager::start()
{
    if (task_)
        return;
    task_ = sim_.every(interval_,
                       [this](sim::Tick now) { sample(now); });
}

void
DomainManager::stop()
{
    task_.reset();
}

double
DomainManager::readNow()
{
    double total = 0.0;
    for (const auto &source : sources_)
        total += source();
    return total;
}

void
DomainManager::setDropoutProbability(double probability, sim::Rng rng)
{
    if (probability < 0.0 || probability >= 1.0)
        sim::fatal("DomainManager: dropout probability ", probability,
                   " outside [0,1)");
    dropoutProbability_ = probability;
    dropoutRng_ = std::move(rng);
}

void
DomainManager::attachObservability(obs::Observability *obs)
{
    if (!obs) {
        trace_ = nullptr;
        deliveredStat_ = droppedStat_ = corruptedStat_ = nullptr;
        rowWattsStat_ = nullptr;
        return;
    }
    trace_ = &obs->trace;
    deliveredStat_ = &obs->metrics.counter(
        "telemetry.readings_delivered",
        "row power readings delivered to listeners");
    droppedStat_ = &obs->metrics.counter(
        "telemetry.readings_dropped",
        "row power readings lost (dropout or injected faults)");
    corruptedStat_ = &obs->metrics.counter(
        "telemetry.readings_corrupted",
        "readings whose value was altered by the fault hook");
    obs->metrics
        .gauge("telemetry.latest_row_watts", "last delivered reading")
        .setSource([this] { return latest_; });
    // 1 W .. 10 MW at 1 % relative error spans any modeled row.
    rowWattsStat_ = &obs->metrics.logHistogram(
        "telemetry.row_watts", 1.0, 1e7, 0.01,
        "distribution of delivered row power readings (watts)");
}

void
DomainManager::attachDomainObservability(obs::Observability *obs,
                                         const std::string &path)
{
    if (!obs)
        return;
    obs->metrics
        .gauge(path + ".power",
               "latest rolled-up power reading at this domain (watts)")
        .setSource([this] { return latest_; });
}

DomainManager::State
DomainManager::saveState() const
{
    State state;
    state.latest = latest_;
    state.latestTime = latestTime_;
    state.dropped = dropped_;
    state.dropoutRng = dropoutRng_;
    state.series = series_;
    if (task_)
        state.task = task_->saveState();
    return state;
}

void
DomainManager::restoreState(const State &state)
{
    latest_ = state.latest;
    latestTime_ = state.latestTime;
    dropped_ = state.dropped;
    dropoutRng_ = state.dropoutRng;
    series_ = state.series;
    if (state.task.running && !task_) {
        sim::panic("DomainManager: restoring a running sampler on a "
                   "stopped manager (start() it first)");
    }
    if (task_)
        task_->restoreState(state.task);
}

void
DomainManager::sample(sim::Tick now)
{
    if (dropoutProbability_ > 0.0 &&
        dropoutRng_.bernoulli(dropoutProbability_)) {
        ++dropped_;
        if (droppedStat_)
            ++*droppedStat_;
        if (trace_) {
            trace_->instant(obs::TraceCategory::Telemetry,
                            "reading_dropped", now);
        }
        return;  // silent failure: no reading, no notification
    }
    double total = readNow();
    if (faultHook_) {
        std::optional<double> faulted = faultHook_(now, total);
        if (!faulted.has_value()) {
            ++dropped_;
            if (droppedStat_)
                ++*droppedStat_;
            if (trace_) {
                trace_->instant(obs::TraceCategory::Telemetry,
                                "reading_dropped", now);
            }
            return;  // injected loss: indistinguishable from dropout
        }
        if (corruptedStat_ && *faulted != total)
            ++*corruptedStat_;
        total = *faulted;
    }
    latest_ = total;
    latestTime_ = now;
    if (deliveredStat_)
        ++*deliveredStat_;
    if (rowWattsStat_)
        rowWattsStat_->add(total);
    if (trace_) {
        trace_->instant(obs::TraceCategory::Telemetry, "row_reading",
                        now, 0, total);
    }
    if (recordSeries_)
        series_.add(now, total);
    for (const auto &listener : listeners_)
        listener(now, total);
}

} // namespace polca::telemetry
