/**
 * @file
 * Load balancer for a pool of inference servers: routes arrivals to
 * the priority-matching pool, preferring idle servers, then servers
 * with buffer room, then a central FIFO (the "typical load balanced
 * setup" with one-request buffers of Section 6.6).
 */

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "cluster/inference_server.hh"
#include "obs/observability.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "workload/trace.hh"

namespace polca::cluster {

/**
 * Priority-aware request router and the cluster's latency/throughput
 * bookkeeper.
 */
class Dispatcher
{
  public:
    Dispatcher(sim::Simulation &sim, sim::Rng rng);

    /** Servers' callbacks hold the dispatcher's address. */
    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    /** Register a server (joins the pool of its priority). */
    void addServer(InferenceServer *server);

    /**
     * Register arrival/completion/spill counters, the central-queue
     * depth histogram (sampled at every enqueue/drain), and
     * central_spill trace instants with @p obs.
     */
    void attachObservability(obs::Observability *obs);

    /**
     * Schedule the trace's arrivals (lazily, one event at a time).
     * @p trace must outlive the simulation run.
     */
    void injectTrace(const workload::Trace &trace);

    /**
     * Full mutable state at a snapshot boundary: the pick stream, the
     * central queues, the latency samplers and counters, and — if an
     * arrival chain is in flight — the schedule position of the next
     * arrival event.
     */
    struct State
    {
        sim::Rng rng;
        std::deque<workload::Request> centralLow;
        std::deque<workload::Request> centralHigh;
        sim::Sampler lowLatency;
        sim::Sampler highLatency;
        std::uint64_t lowArrivals = 0;
        std::uint64_t highArrivals = 0;
        std::uint64_t lowCompletions = 0;
        std::uint64_t highCompletions = 0;
        bool arrivalPending = false;
        std::size_t nextArrival = 0;      ///< trace index of that event
        sim::Tick arrivalWhen = 0;
        std::uint64_t arrivalSeq = 0;
    };

    /** Capture mutable state (snapshot support). */
    [[nodiscard]] State saveState() const;

    /**
     * Restore from a snapshot while the queue has a restore open.
     * @p trace is the same trace object (or an identical copy) the
     * snapshotted dispatcher was fed; required when the saved state
     * has an arrival in flight.  Replaces injectTrace() on a branch —
     * the arrival chain resumes at the saved position.
     */
    void restoreState(const State &state,
                      const workload::Trace *trace);

    /** @name Statistics */
    /** @{ */
    /** End-to-end latency (seconds) of completed requests. */
    const sim::Sampler &latencySeconds(workload::Priority p) const;

    std::uint64_t arrivals(workload::Priority p) const;
    std::uint64_t completions(workload::Priority p) const;

    /** Requests currently waiting in the central queue. */
    std::size_t centralQueueDepth(workload::Priority p) const;

    /** Completed requests per second of simulated time so far. */
    double throughput(workload::Priority p) const;
    /** @} */

  private:
    using Availability = InferenceServer::Availability;

    /**
     * One priority pool and its dispatch candidates: the sorted pool
     * positions of idle servers, and of busy servers with buffer
     * room.  Each server reports its availability changes (the
     * callback captures its position), so the lists are always what
     * a scan of the pool would collect, in pool order.
     */
    struct Pool
    {
        std::vector<InferenceServer *> servers;
        std::vector<std::uint32_t> idle;
        std::vector<std::uint32_t> room;

        /** Candidate list of @p a; null for Full. */
        std::vector<std::uint32_t> *candidates(Availability a);

        /** Move position @p pos from the @p from list to the @p to
         *  list. */
        void move(std::uint32_t pos, Availability from, Availability to);

        /** The lists equal a fresh scan of the servers. */
        bool matchesScan() const;
    };

    void scheduleArrival(std::size_t index);
    void arrive(std::size_t index);
    void route(const workload::Request &request);
    void onCompletion(InferenceServer &server);

    Pool &pool(workload::Priority p);
    std::deque<workload::Request> &central(workload::Priority p);

    /** Pick an accepting server: random idle, else random with
     *  buffer room; nullptr when none can accept. */
    InferenceServer *pickServer(workload::Priority p);

    sim::Simulation &sim_;
    sim::Rng rng_;
    // polca-snapshot: skip(lowPool_, wiring; lists derived; recomputed on restore)
    Pool lowPool_;
    // polca-snapshot: skip(highPool_, wiring; lists derived; recomputed on restore)
    Pool highPool_;
    std::deque<workload::Request> centralLow_;
    std::deque<workload::Request> centralHigh_;
    sim::Sampler lowLatency_;
    sim::Sampler highLatency_;
    std::uint64_t lowArrivals_ = 0;
    std::uint64_t highArrivals_ = 0;
    std::uint64_t lowCompletions_ = 0;
    std::uint64_t highCompletions_ = 0;

    /** Trace being injected and the arrival chain's position (the
     *  chain schedules one event at a time; see scheduleArrival). */
    const workload::Trace *feed_ = nullptr;
    bool arrivalPending_ = false;
    std::size_t nextArrival_ = 0;
    sim::Tick arrivalWhen_ = 0;
    std::uint64_t arrivalSeq_ = 0;

    obs::TraceRecorder *trace_ = nullptr;
    obs::Counter *arrivalLowStat_ = nullptr;
    obs::Counter *arrivalHighStat_ = nullptr;
    obs::Counter *completionStat_ = nullptr;
    obs::Counter *spillStat_ = nullptr;
    obs::Histogram *queueDepthStat_ = nullptr;
    obs::LogHistogram *queueDelayStat_ = nullptr;
};

} // namespace polca::cluster

