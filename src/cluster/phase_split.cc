#include "cluster/phase_split.hh"

#include "sim/logging.hh"

namespace polca::cluster {

PhaseSplitCluster::PhaseSplitCluster(sim::Simulation &sim,
                                     PhaseSplitConfig config,
                                     sim::Rng rng)
    : sim_(sim), config_(std::move(config)),
      model_(llm::ModelCatalog().byName(config_.modelName)),
      rng_(std::move(rng))
{
    if (config_.promptServers <= 0 || config_.tokenServers <= 0)
        sim::fatal("PhaseSplitCluster: both pools need servers");

    int id = 0;
    for (int i = 0; i < config_.promptServers; ++i) {
        promptPool_.push_back(std::make_unique<InferenceServer>(
            sim_, config_.serverSpec, model_, workload::Priority::Low,
            id++, config_.bufferSize, ServerRole::PromptOnly));
        promptPool_.back()->setCompletionCallback(
            [this](InferenceServer &,
                   const InferenceServer::Completion &c) {
                // Prompt done: ship the KV cache, then queue the
                // token stage.
                double ms = config_.transferMsPerKtoken *
                    c.request.inputTokens / 1000.0;
                workload::Request tokenStage = c.request;
                sim_.queue().postAfter(
                    sim::msToTicks(ms),
                    [this, tokenStage] { routeToken(tokenStage); });
                drain(promptQueue_, promptPool_, false);
            });
    }
    for (int i = 0; i < config_.tokenServers; ++i) {
        tokenPool_.push_back(std::make_unique<InferenceServer>(
            sim_, config_.serverSpec, model_, workload::Priority::Low,
            id++, config_.bufferSize, ServerRole::TokenOnly));
        if (config_.tokenClockMhz > 0.0)
            tokenPool_.back()->applyClockLock(config_.tokenClockMhz);
        tokenPool_.back()->setCompletionCallback(
            [this](InferenceServer &,
                   const InferenceServer::Completion &c) {
                latency_.add(sim::ticksToSeconds(c.latency));
                ++completions_;
                drain(tokenQueue_, tokenPool_, true);
            });
    }
}

void
PhaseSplitCluster::injectTrace(const workload::Trace &trace)
{
    if (trace.empty())
        return;
    sim::Tick when =
        std::max(trace.requests().front().arrival, sim_.now());
    sim_.queue().post(
        when, [this, &trace] { arrive(trace, 0); });
}

void
PhaseSplitCluster::arrive(const workload::Trace &trace,
                          std::size_t index)
{
    routePrompt(trace.requests()[index]);
    std::size_t next = index + 1;
    if (next < trace.size()) {
        sim::Tick when = std::max(trace.requests()[next].arrival,
                                  sim_.now());
        sim_.queue().post(
            when, [this, &trace, next] { arrive(trace, next); });
    }
}

InferenceServer *
PhaseSplitCluster::pick(
    std::vector<std::unique_ptr<InferenceServer>> &pool)
{
    std::vector<InferenceServer *> idle;
    std::vector<InferenceServer *> buffered;
    for (auto &server : pool) {
        if (server->idleNow())
            idle.push_back(server.get());
        else if (server->bufferFree())
            buffered.push_back(server.get());
    }
    auto choose = [this](std::vector<InferenceServer *> &candidates) {
        auto i = static_cast<std::size_t>(rng_.uniformInt(
            0, static_cast<std::int64_t>(candidates.size()) - 1));
        return candidates[i];
    };
    if (!idle.empty())
        return choose(idle);
    if (!buffered.empty())
        return choose(buffered);
    return nullptr;
}

void
PhaseSplitCluster::routePrompt(const workload::Request &request)
{
    if (InferenceServer *server = pick(promptPool_))
        server->submit(request);
    else
        promptQueue_.push_back(request);
}

void
PhaseSplitCluster::routeToken(const workload::Request &request)
{
    if (InferenceServer *server = pick(tokenPool_))
        server->submit(request);
    else
        tokenQueue_.push_back(request);
}

void
PhaseSplitCluster::drain(
    std::deque<workload::Request> &queue,
    std::vector<std::unique_ptr<InferenceServer>> &pool, bool)
{
    while (!queue.empty()) {
        InferenceServer *server = pick(pool);
        if (!server)
            return;
        server->submit(queue.front());
        queue.pop_front();
    }
}

double
PhaseSplitCluster::powerWatts() const
{
    double total = 0.0;
    for (const auto &server : promptPool_)
        total += server->powerWatts();
    for (const auto &server : tokenPool_)
        total += server->powerWatts();
    return total;
}

std::vector<InferenceServer *>
PhaseSplitCluster::servers()
{
    std::vector<InferenceServer *> out;
    for (auto &server : promptPool_)
        out.push_back(server.get());
    for (auto &server : tokenPool_)
        out.push_back(server.get());
    return out;
}

} // namespace polca::cluster
