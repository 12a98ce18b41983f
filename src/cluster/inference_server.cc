#include "cluster/inference_server.hh"

#include <algorithm>
#include <cstddef>

#include "core/contracts.hh"
#include "sim/logging.hh"

namespace polca::cluster {

const char *
toString(ServerRole role)
{
    switch (role) {
      case ServerRole::Combined:
        return "combined";
      case ServerRole::PromptOnly:
        return "prompt-only";
      case ServerRole::TokenOnly:
        return "token-only";
    }
    return "?";
}

InferenceServer::InferenceServer(
    sim::Simulation &sim,
    std::shared_ptr<const power::ServerSpec> serverSpec,
    std::shared_ptr<const llm::ModelSpec> model, workload::Priority pool,
    int id, std::size_t bufferSize, ServerRole role)
    : sim_(sim), server_(std::move(serverSpec)), phases_(std::move(model)),
      pool_(pool), id_(id), bufferSize_(bufferSize), role_(role),
      usedGpus_(static_cast<std::size_t>(phases_.model().inferenceGpus))
{
    const llm::ModelSpec &spec = phases_.model();
    if (spec.inferenceGpus <= 0 || usedGpus_ > server_.numGpus()) {
        sim::fatal("InferenceServer: model '", spec.name, "' needs ",
                   spec.inferenceGpus, " GPUs; server has ",
                   server_.numGpus());
    }
}

InferenceServer::InferenceServer(sim::Simulation &sim,
                                 power::ServerSpec serverSpec,
                                 const llm::ModelSpec &model,
                                 workload::Priority pool, int id,
                                 std::size_t bufferSize,
                                 ServerRole role)
    : InferenceServer(
          sim,
          std::make_shared<const power::ServerSpec>(std::move(serverSpec)),
          std::make_shared<const llm::ModelSpec>(model), pool, id,
          bufferSize, role)
{
}

void
InferenceServer::RequestBuffer::push(const workload::Request &request)
{
    if (head_ > 0 && head_ >= size()) {
        items_.erase(items_.begin(),
                     items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
    items_.push_back(request);
}

workload::Request
InferenceServer::RequestBuffer::pop()
{
    POLCA_ASSERT(!empty(), "pop from an empty request buffer");
    workload::Request request = items_[head_++];
    if (empty())
        clear();
    return request;
}

void
InferenceServer::RequestBuffer::clear()
{
    items_.clear();
    head_ = 0;
}

std::vector<workload::Request>
InferenceServer::RequestBuffer::requests() const
{
    return {items_.begin() + static_cast<std::ptrdiff_t>(head_),
            items_.end()};
}

void
InferenceServer::RequestBuffer::assign(
    const std::vector<workload::Request> &requests)
{
    items_ = requests;
    head_ = 0;
}

InferenceServer::ObsHandles
InferenceServer::ObsHandles::resolve(obs::Observability *sink)
{
    ObsHandles handles;
    if (!sink)
        return handles;
    handles.sink = sink;
    handles.batches = &sink->metrics.counter(
        "server.batches", "batches started across the fleet");
    handles.completions = &sink->metrics.counter(
        "server.completions", "requests completed across the fleet");
    handles.dropped = &sink->metrics.counter(
        "server.dropped_requests", "requests lost to server crashes");
    handles.promptTicks = &sink->metrics.counter(
        "server.prompt_ticks", "ticks spent in prompt phases");
    handles.tokenTicks = &sink->metrics.counter(
        "server.token_ticks", "ticks spent in token phases");
    handles.occupancy = &sink->metrics.histogram(
        "server.batch_occupancy", 0.0, 32.0, 16,
        "requests coalesced per batch");
    return handles;
}

void
InferenceServer::attachObservability(const ObsHandles &handles)
{
    POLCA_DCHECK(handles == ObsHandles::resolve(handles.sink),
                 "server ", id_, ": metric handles differ from the "
                 "sink's registry (stale or hand-built handle)");
    obs_ = handles;
}

llm::InferenceConfig
InferenceServer::configFor(
    const std::vector<workload::Request> &batch) const
{
    llm::InferenceConfig config;
    config.batchSize = static_cast<int>(batch.size());
    config.datatype = llm::Datatype::FP16;
    config.inputTokens = 0;   // padded-batch maxima, not defaults
    config.outputTokens = 0;
    for (const workload::Request &r : batch) {
        config.inputTokens = std::max(config.inputTokens,
                                      r.inputTokens);
        config.outputTokens = std::max(config.outputTokens,
                                       r.outputTokens);
    }
    return config;
}

void
InferenceServer::setMaxBatchSize(std::size_t n)
{
    if (n == 0)
        sim::fatal("InferenceServer: zero max batch size");
    maxBatchSize_ = n;
}

void
InferenceServer::powerChanged()
{
    if (powerListener_)
        powerListener_();
}

void
InferenceServer::availabilityChanged()
{
    Availability now = availability();
    if (now == reported_)
        return;
    Availability before = reported_;
    reported_ = now;
    if (onAvailability_)
        onAvailability_(before, now);
}

void
InferenceServer::submit(const workload::Request &request)
{
    if (crashed_) {
        sim::panic("InferenceServer ", id_,
                   ": submit while crashed (dispatcher bug)");
    }
    if (!active_.has_value()) {
        startBatch({request});
    } else if (bufferFree()) {
        buffer_.push(request);
    } else {
        sim::panic("InferenceServer ", id_,
                   ": submit with full buffer (dispatcher bug)");
    }
    availabilityChanged();
}

void
InferenceServer::startBatch(std::vector<workload::Request> requests)
{
    if (requests.empty())
        sim::panic("InferenceServer: empty batch");
    active_.emplace();
    active_->requests = std::move(requests);
    active_->serviceStart = sim_.now();
    if (obs_.batches)
        ++*obs_.batches;
    if (obs_.occupancy)
        obs_.occupancy->add(static_cast<double>(active_->requests.size()));
    beginPhase(role_ == ServerRole::TokenOnly ? llm::Phase::Token
                                              : llm::Phase::Prompt);
}

void
InferenceServer::startNextFromBuffer()
{
    if (buffer_.empty())
        return;
    std::vector<workload::Request> batch;
    while (!buffer_.empty() && batch.size() < maxBatchSize_)
        batch.push_back(buffer_.pop());
    startBatch(std::move(batch));
}

double
InferenceServer::currentSlowdown(llm::Phase phase) const
{
    return server_.gpu(0).slowdownFactor(
        phases_.computeBoundFraction(phase));
}

void
InferenceServer::setPhaseActivity()
{
    power::GpuActivity activity = power::GpuActivity::idle();
    if (active_.has_value()) {
        llm::InferenceConfig config = configFor(active_->requests);
        activity = phases_.activity(active_->phase, config);
        activity.compute *= powerScale_;
        activity.memory = std::min(activity.memory * powerScale_, 1.2);
    }
    for (std::size_t g = 0; g < usedGpus_; ++g)
        server_.setGpuActivity(g, activity);
    powerChanged();
}

void
InferenceServer::beginPhase(llm::Phase phase)
{
    llm::InferenceConfig config = configFor(active_->requests);
    active_->phase = phase;
    active_->phaseStart = sim_.now();
    active_->workRemaining = static_cast<double>(
        phase == llm::Phase::Prompt
            ? phases_.promptDuration(config)
            : phases_.tokenPhaseDuration(config));
    applyDesiredClock();  // phase-aware clock for the new phase
    setPhaseActivity();
    schedulePhaseEnd();
}

void
InferenceServer::schedulePhaseEnd()
{
    active_->slowdown = currentSlowdown(active_->phase);
    active_->phaseUpdateTime = sim_.now();
    auto wall = static_cast<sim::Tick>(
        active_->workRemaining * active_->slowdown + 0.5);
    active_->completionEvent = sim_.queue().scheduleAfter(
        wall, [this] { phaseEnded(); });
}

void
InferenceServer::phaseEnded()
{
    obs::Counter *phaseTicks = active_->phase == llm::Phase::Prompt
        ? obs_.promptTicks : obs_.tokenTicks;
    if (phaseTicks) {
        *phaseTicks += static_cast<std::uint64_t>(
            sim_.now() - active_->phaseStart);
    }

    bool anyOutput = false;
    for (const workload::Request &r : active_->requests)
        anyOutput |= r.outputTokens > 0;
    if (active_->phase == llm::Phase::Prompt && anyOutput &&
        role_ != ServerRole::PromptOnly) {
        beginPhase(llm::Phase::Token);
        return;
    }

    // All requests in the batch complete together.
    std::vector<Completion> completions;
    completions.reserve(active_->requests.size());
    for (const workload::Request &r : active_->requests) {
        Completion completion;
        completion.request = r;
        completion.completionTime = sim_.now();
        completion.latency = sim_.now() - r.arrival;
        completion.lastPhase = active_->phase;
        completions.push_back(completion);
    }
    busyTicks_ += sim_.now() - active_->serviceStart;
    completed_ += completions.size();
    if (obs_.completions)
        *obs_.completions += completions.size();
    if (obs_.sink) {
        obs_.sink->trace.complete(
            obs::TraceCategory::Cluster, "batch", active_->serviceStart,
            sim_.now() - active_->serviceStart, id_,
            static_cast<double>(active_->requests.size()));
    }
    active_.reset();
    applyDesiredClock();  // release any phase-aware token clock
    setPhaseActivity();   // idle

    startNextFromBuffer();
    availabilityChanged();

    if (onComplete_) {
        for (const Completion &completion : completions)
            onComplete_(*this, completion);
    }
}

void
InferenceServer::clockChanged()
{
    if (!active_.has_value())
        return;

    // Account for progress at the old slowdown, then rebook the
    // remaining work at the new one.
    sim::Tick elapsed = sim_.now() - active_->phaseUpdateTime;
    double done = static_cast<double>(elapsed) / active_->slowdown;
    active_->workRemaining =
        std::max(0.0, active_->workRemaining - done);
    sim_.queue().cancel(active_->completionEvent);
    schedulePhaseEnd();
}

void
InferenceServer::applyDesiredClock()
{
    // Effective lock = the lower of the OOB-commanded lock and the
    // phase-aware token clock (when a token phase is running).
    double phase = 0.0;
    if (phaseTokenClockMhz_ > 0.0 && active_.has_value() &&
        active_->phase == llm::Phase::Token) {
        phase = phaseTokenClockMhz_;
    }

    double desired;
    if (policyLockMhz_ > 0.0 && phase > 0.0)
        desired = std::min(policyLockMhz_, phase);
    else
        desired = std::max(policyLockMhz_, phase);

    if (desired > 0.0)
        server_.lockClockAll(desired);
    else
        server_.unlockClockAll();
    powerChanged();
}

void
InferenceServer::refreshClock()
{
    applyDesiredClock();
    clockChanged();
}

void
InferenceServer::applyClockLock(double mhz)
{
    if (crashed_)
        return;  // command lands on a dead server and is lost
    policyLockMhz_ = mhz;
    refreshClock();
}

void
InferenceServer::applyClockUnlock()
{
    if (crashed_)
        return;
    policyLockMhz_ = 0.0;
    refreshClock();
}

void
InferenceServer::setPhaseAwareTokenClock(double mhz)
{
    if (mhz < 0.0)
        sim::fatal("InferenceServer: negative token clock");
    phaseTokenClockMhz_ = mhz;
    refreshClock();
}

void
InferenceServer::applyPowerBrake(bool engaged)
{
    if (crashed_)
        return;
    server_.setPowerBrakeAll(engaged);
    powerChanged();
    clockChanged();
}

void
InferenceServer::crash()
{
    if (crashed_)
        return;
    crashed_ = true;
    std::uint64_t lost = buffer_.size();
    if (active_.has_value()) {
        lost += active_->requests.size();
        sim_.queue().cancel(active_->completionEvent);
        active_.reset();
    }
    droppedRequests_ += lost;
    if (obs_.dropped)
        *obs_.dropped += lost;
    buffer_.clear();
    // A reboot clears the BMC-applied state: the lock and brake are
    // gone until the manager's verification pass re-issues them.
    policyLockMhz_ = 0.0;
    server_.unlockClockAll();
    server_.setPowerBrakeAll(false);
    setPhaseActivity();  // reports the drop to zero draw
    availabilityChanged();
}

void
InferenceServer::restore()
{
    // Comes back empty, unlocked, and idle; powerWatts() resumes
    // reporting the (idle) electrical draw.
    crashed_ = false;
    powerChanged();
    availabilityChanged();
}

double
InferenceServer::appliedClockLockMhz() const
{
    // The BMC-visible state: what the OOB path last applied.  The
    // transient phase-aware token clock is in-band and local, so it
    // must not confuse the power manager's verification pass.
    return policyLockMhz_;
}

bool
InferenceServer::powerBrakeEngaged() const
{
    return server_.gpu(0).powerBrake();
}

InferenceServer::State
InferenceServer::saveState() const
{
    State state;
    state.server.emplace(server_);
    state.powerScale = powerScale_;
    state.policyLockMhz = policyLockMhz_;
    state.phaseTokenClockMhz = phaseTokenClockMhz_;
    state.crashed = crashed_;
    state.droppedRequests = droppedRequests_;
    state.buffer = buffer_.requests();
    state.completed = completed_;
    state.busyTicks = busyTicks_;
    if (active_.has_value()) {
        state.active.emplace();
        state.active->requests = active_->requests;
        state.active->phase = active_->phase;
        state.active->workRemaining = active_->workRemaining;
        state.active->slowdown = active_->slowdown;
        state.active->phaseUpdateTime = active_->phaseUpdateTime;
        state.active->phaseStart = active_->phaseStart;
        state.active->serviceStart = active_->serviceStart;
        state.active->completionWhen = active_->completionEvent.when();
        state.active->completionSeq = active_->completionEvent.seq();
    }
    return state;
}

void
InferenceServer::restoreState(const State &state)
{
    if (!state.server.has_value())
        sim::panic("InferenceServer: restoring an empty state");
    server_ = *state.server;
    powerScale_ = state.powerScale;
    policyLockMhz_ = state.policyLockMhz;
    phaseTokenClockMhz_ = state.phaseTokenClockMhz;
    crashed_ = state.crashed;
    droppedRequests_ = state.droppedRequests;
    buffer_.assign(state.buffer);
    completed_ = state.completed;
    busyTicks_ = state.busyTicks;
    active_.reset();
    if (state.active.has_value()) {
        active_.emplace();
        active_->requests = state.active->requests;
        active_->phase = state.active->phase;
        active_->workRemaining = state.active->workRemaining;
        active_->slowdown = state.active->slowdown;
        active_->phaseUpdateTime = state.active->phaseUpdateTime;
        active_->phaseStart = state.active->phaseStart;
        active_->serviceStart = state.active->serviceStart;
        active_->completionEvent = sim_.queue().rearmSchedule(
            state.active->completionWhen, state.active->completionSeq,
            [this] { phaseEnded(); });
    }
    powerChanged();
    availabilityChanged();
}

void
InferenceServer::setPowerScaleFactor(double factor)
{
    if (factor <= 0.0)
        sim::fatal("InferenceServer: non-positive power scale");
    powerScale_ = factor;
    setPhaseActivity();
}

} // namespace polca::cluster
