#include "cluster/dispatcher.hh"

#include <algorithm>
#include <utility>

#include "core/contracts.hh"
#include "sim/logging.hh"

namespace polca::cluster {

Dispatcher::Dispatcher(sim::Simulation &sim, sim::Rng rng)
    : sim_(sim), rng_(std::move(rng))
{
}

Dispatcher::Pool &
Dispatcher::pool(workload::Priority p)
{
    return p == workload::Priority::High ? highPool_ : lowPool_;
}

std::vector<std::uint32_t> *
Dispatcher::Pool::candidates(Availability a)
{
    switch (a) {
      case Availability::Idle:
        return &idle;
      case Availability::Room:
        return &room;
      case Availability::Full:
        return nullptr;
    }
    return nullptr;
}

void
Dispatcher::Pool::move(std::uint32_t pos, Availability from,
                       Availability to)
{
    if (std::vector<std::uint32_t> *list = candidates(from)) {
        auto it = std::lower_bound(list->begin(), list->end(), pos);
        POLCA_ASSERT(it != list->end() && *it == pos,
                     "server ", servers[pos]->id(),
                     " missing from its candidate list");
        list->erase(it);
    }
    if (std::vector<std::uint32_t> *list = candidates(to))
        list->insert(std::lower_bound(list->begin(), list->end(), pos),
                     pos);
}

bool
Dispatcher::Pool::matchesScan() const
{
    std::vector<std::uint32_t> scanIdle;
    std::vector<std::uint32_t> scanRoom;
    for (std::uint32_t i = 0; i < servers.size(); ++i) {
        if (servers[i]->idleNow())
            scanIdle.push_back(i);
        else if (servers[i]->bufferFree())
            scanRoom.push_back(i);
    }
    return scanIdle == idle && scanRoom == room;
}

std::deque<workload::Request> &
Dispatcher::central(workload::Priority p)
{
    return p == workload::Priority::High ? centralHigh_ : centralLow_;
}

void
Dispatcher::addServer(InferenceServer *server)
{
    if (!server)
        sim::panic("Dispatcher: null server");
    Pool &members = pool(server->pool());
    auto pos = static_cast<std::uint32_t>(members.servers.size());
    members.servers.push_back(server);
    Availability now = server->availability();
    if (std::vector<std::uint32_t> *list = members.candidates(now))
        list->push_back(pos);  // largest position: stays sorted
    server->setAvailabilityCallback(
        [&members, pos](Availability from, Availability to) {
            members.move(pos, from, to);
        });
    server->setCompletionCallback(
        [this](InferenceServer &s, const InferenceServer::Completion &c) {
            workload::Priority p = c.request.priority;
            double seconds = sim::ticksToSeconds(c.latency);
            if (p == workload::Priority::High) {
                highLatency_.add(seconds);
                ++highCompletions_;
            } else {
                lowLatency_.add(seconds);
                ++lowCompletions_;
            }
            if (completionStat_)
                ++*completionStat_;
            onCompletion(s);
        });
}

void
Dispatcher::attachObservability(obs::Observability *obs)
{
    if (!obs) {
        trace_ = nullptr;
        arrivalLowStat_ = arrivalHighStat_ = completionStat_ =
            spillStat_ = nullptr;
        queueDepthStat_ = nullptr;
        queueDelayStat_ = nullptr;
        return;
    }
    trace_ = &obs->trace;
    arrivalLowStat_ = &obs->metrics.counter(
        "dispatcher.arrivals_low", "low-priority request arrivals");
    arrivalHighStat_ = &obs->metrics.counter(
        "dispatcher.arrivals_high", "high-priority request arrivals");
    completionStat_ = &obs->metrics.counter(
        "dispatcher.completions", "requests completed (all pools)");
    spillStat_ = &obs->metrics.counter(
        "dispatcher.central_spills",
        "arrivals that found no server and queued centrally");
    queueDepthStat_ = &obs->metrics.histogram(
        "dispatcher.central_queue_depth", 0.0, 64.0, 16,
        "central queue depth sampled at enqueue/drain");
    // 1 ms .. ~1 day at 1 % relative error: central-queue waits range
    // from instant drains to capped-pool pileups.
    queueDelayStat_ = &obs->metrics.logHistogram(
        "dispatcher.queue_delay_s", 1e-3, 1e5, 0.01,
        "central-queue wait of spilled requests (seconds)");
}

void
Dispatcher::injectTrace(const workload::Trace &trace)
{
    if (trace.empty())
        return;
    feed_ = &trace;
    scheduleArrival(0);
}

void
Dispatcher::scheduleArrival(std::size_t index)
{
    sim::Tick when = std::max(feed_->requests()[index].arrival,
                              sim_.now());
    arrivalPending_ = true;
    nextArrival_ = index;
    arrivalWhen_ = when;
    arrivalSeq_ = sim_.queue().post(
        when, [this, index] { arrive(index); });
}

void
Dispatcher::arrive(std::size_t index)
{
    arrivalPending_ = false;
    const workload::Request &request = feed_->requests()[index];
    if (request.priority == workload::Priority::High) {
        ++highArrivals_;
        if (arrivalHighStat_)
            ++*arrivalHighStat_;
    } else {
        ++lowArrivals_;
        if (arrivalLowStat_)
            ++*arrivalLowStat_;
    }
    route(request);

    std::size_t next = index + 1;
    if (next < feed_->size())
        scheduleArrival(next);
}

Dispatcher::State
Dispatcher::saveState() const
{
    State state;
    state.rng = rng_;
    state.centralLow = centralLow_;
    state.centralHigh = centralHigh_;
    state.lowLatency = lowLatency_;
    state.highLatency = highLatency_;
    state.lowArrivals = lowArrivals_;
    state.highArrivals = highArrivals_;
    state.lowCompletions = lowCompletions_;
    state.highCompletions = highCompletions_;
    state.arrivalPending = arrivalPending_;
    if (arrivalPending_) {
        state.nextArrival = nextArrival_;
        state.arrivalWhen = arrivalWhen_;
        state.arrivalSeq = arrivalSeq_;
    }
    return state;
}

void
Dispatcher::restoreState(const State &state,
                         const workload::Trace *trace)
{
    rng_ = state.rng;
    centralLow_ = state.centralLow;
    centralHigh_ = state.centralHigh;
    lowLatency_ = state.lowLatency;
    highLatency_ = state.highLatency;
    lowArrivals_ = state.lowArrivals;
    highArrivals_ = state.highArrivals;
    lowCompletions_ = state.lowCompletions;
    highCompletions_ = state.highCompletions;
    feed_ = trace;
    arrivalPending_ = state.arrivalPending;
    if (!state.arrivalPending)
        return;
    if (!feed_) {
        sim::panic("Dispatcher: restoring an in-flight arrival chain "
                   "without its trace");
    }
    nextArrival_ = state.nextArrival;
    arrivalWhen_ = state.arrivalWhen;
    arrivalSeq_ = state.arrivalSeq;
    std::size_t index = state.nextArrival;
    sim_.queue().rearmPost(state.arrivalWhen, state.arrivalSeq,
                           [this, index] { arrive(index); });
}

InferenceServer *
Dispatcher::pickServer(workload::Priority p)
{
    Pool &members = pool(p);
    if (members.servers.empty()) {
        sim::fatal("Dispatcher: no servers in the ",
                   workload::toString(p), " priority pool");
    }
    POLCA_DCHECK(members.matchesScan(), "dispatch candidate lists of the ",
                 workload::toString(p),
                 " pool differ from a pool scan (missed availability "
                 "report)");

    // Prefer idle servers, then servers with buffer room; pick
    // uniformly at random within the preferred class (load
    // balancing without a shared queue).
    auto pick = [this, &members](const std::vector<std::uint32_t> &list) {
        auto i = static_cast<std::size_t>(rng_.uniformInt(
            0, static_cast<std::int64_t>(list.size()) - 1));
        return members.servers[list[i]];
    };
    if (!members.idle.empty())
        return pick(members.idle);
    if (!members.room.empty())
        return pick(members.room);
    return nullptr;
}

void
Dispatcher::route(const workload::Request &request)
{
    InferenceServer *server = pickServer(request.priority);
    if (server) {
        server->submit(request);
        return;
    }
    auto &queue = central(request.priority);
    queue.push_back(request);
    if (spillStat_)
        ++*spillStat_;
    if (queueDepthStat_)
        queueDepthStat_->add(static_cast<double>(queue.size()));
    if (trace_) {
        trace_->instant(obs::TraceCategory::Cluster, "central_spill",
                        sim_.now(), 0,
                        static_cast<double>(queue.size()));
    }
}

void
Dispatcher::onCompletion(InferenceServer &server)
{
    auto &queue = central(server.pool());
    bool drained = false;
    while (!queue.empty() && server.canAccept()) {
        if (queueDelayStat_) {
            queueDelayStat_->add(sim::ticksToSeconds(
                sim_.now() - queue.front().arrival));
        }
        server.submit(queue.front());
        queue.pop_front();
        drained = true;
    }
    if (drained && queueDepthStat_)
        queueDepthStat_->add(static_cast<double>(queue.size()));
}

const sim::Sampler &
Dispatcher::latencySeconds(workload::Priority p) const
{
    return p == workload::Priority::High ? highLatency_ : lowLatency_;
}

std::uint64_t
Dispatcher::arrivals(workload::Priority p) const
{
    return p == workload::Priority::High ? highArrivals_ : lowArrivals_;
}

std::uint64_t
Dispatcher::completions(workload::Priority p) const
{
    return p == workload::Priority::High ? highCompletions_
                                         : lowCompletions_;
}

std::size_t
Dispatcher::centralQueueDepth(workload::Priority p) const
{
    return p == workload::Priority::High ? centralHigh_.size()
                                         : centralLow_.size();
}

double
Dispatcher::throughput(workload::Priority p) const
{
    double seconds = sim::ticksToSeconds(sim_.now());
    if (seconds <= 0.0)
        return 0.0;
    return static_cast<double>(completions(p)) / seconds;
}

} // namespace polca::cluster
