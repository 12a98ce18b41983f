/**
 * @file
 * Event-driven LLM inference endpoint: one server running one model
 * replica with a one-request buffer (the paper's simulator setup,
 * Section 6.6).  Executes prompt/token phases at the GPUs' effective
 * clock and reschedules in-flight work exactly when POLCA changes the
 * frequency locks.
 *
 * A site builds ten thousand of these, so a server holds only what
 * varies per server: the servers of a row group share one server
 * spec and one model spec, its GPUs point into the server spec
 * (power::ServerModel), the GPUs a model uses are a count, the
 * fleet-wide metrics are resolved once per run and handed to every
 * server, and the request buffer allocates nothing until a request
 * is buffered.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "llm/phase_model.hh"
#include "obs/observability.hh"
#include "power/server_model.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "telemetry/smbpbi.hh"
#include "workload/trace.hh"

namespace polca::cluster {

/**
 * What part of an inference a server executes.  Combined is the
 * paper's default deployment; PromptOnly/TokenOnly implement the
 * Section 5.2 "separate prompt computation and token processing on
 * different GPUs" design (Splitwise), coordinated by
 * PhaseSplitCluster.
 */
enum class ServerRole
{
    Combined,
    PromptOnly,
    TokenOnly,
};

const char *toString(ServerRole role);

/**
 * One inference-serving GPU server.
 *
 * A request runs as a prompt segment then a token segment; segment
 * progress is tracked in "work at max clock" units so a clock change
 * mid-flight simply rescales the remaining wall time.  GPU activity
 * follows the active phase, so the server's powerWatts() reflects the
 * spiky-prompt / flat-token pattern of Insight 4.
 */
class InferenceServer : public telemetry::ClockControllable
{
  public:
    /** Completion record handed to the completion callback. */
    struct Completion
    {
        workload::Request request;
        sim::Tick completionTime;
        sim::Tick latency;          ///< completion - trace arrival
        llm::Phase lastPhase;       ///< phase that finished the stay
    };

    using CompletionCallback =
        std::function<void(InferenceServer &, const Completion &)>;

    /** A server sharing @p serverSpec and @p model with the other
     *  servers of its row group. */
    InferenceServer(sim::Simulation &sim,
                    std::shared_ptr<const power::ServerSpec> serverSpec,
                    std::shared_ptr<const llm::ModelSpec> model,
                    workload::Priority pool, int id,
                    std::size_t bufferSize = 1,
                    ServerRole role = ServerRole::Combined);

    /** A server with its own copies of both specs (standalone use). */
    InferenceServer(sim::Simulation &sim, power::ServerSpec serverSpec,
                    const llm::ModelSpec &model,
                    workload::Priority pool, int id,
                    std::size_t bufferSize = 1,
                    ServerRole role = ServerRole::Combined);

    /**
     * The fleet-wide serving counters, the batch-occupancy histogram
     * and the trace recorder of one sink.  Every server updates the
     * same "server.*" objects, so the metrics aggregate across the
     * fleet and one handle serves every server of a run.
     */
    struct ObsHandles
    {
        obs::Observability *sink = nullptr;  ///< null: detached
        obs::Counter *batches = nullptr;
        obs::Counter *completions = nullptr;
        obs::Counter *dropped = nullptr;
        obs::Counter *promptTicks = nullptr;
        obs::Counter *tokenTicks = nullptr;
        obs::Histogram *occupancy = nullptr;

        /** Look the metrics up in @p sink's registry, registering
         *  them on first use; a null sink gives null handles. */
        static ObsHandles resolve(obs::Observability *sink);

        bool operator==(const ObsHandles &) const = default;
    };

    /**
     * Report serving counters, batch occupancy and per-batch trace
     * spans (one Chrome "thread" per server id) through @p handles,
     * resolved once for the whole fleet (no registry lookup per
     * server); null handles detach.
     */
    void attachObservability(const ObsHandles &handles);

    int id() const { return id_; }
    workload::Priority pool() const { return pool_; }
    ServerRole role() const { return role_; }
    const llm::ModelSpec &model() const { return phases_.model(); }

    /** @name Request flow */
    /** @{ */
    /** @return true when no request is being served (and the server
     *  is up — a crashed server is dark, not idle). */
    bool idleNow() const { return !crashed_ && !active_.has_value(); }

    /** @return true when the buffer has room. */
    bool bufferFree() const
    {
        return !crashed_ && buffer_.size() < bufferSize_;
    }

    /** @return true if submit() may be called. */
    bool canAccept() const { return idleNow() || bufferFree(); }

    /** What an arriving request finds here, for dispatch. */
    enum class Availability : std::uint8_t
    {
        Idle,   ///< idleNow()
        Room,   ///< busy, but bufferFree()
        Full,   ///< busy with a full buffer, or crashed
    };

    Availability availability() const
    {
        if (idleNow())
            return Availability::Idle;
        return bufferFree() ? Availability::Room : Availability::Full;
    }

    using AvailabilityCallback =
        std::function<void(Availability from, Availability to)>;

    /**
     * Report every availability change to @p callback, with the class
     * before and after (the dispatcher keeps its candidate lists with
     * it).  Changes are reported when the server settles: after a
     * submit, after a batch completes (before the completion
     * callback), and on crash, restore and snapshot restore.
     */
    void setAvailabilityCallback(AvailabilityCallback callback)
    {
        onAvailability_ = std::move(callback);
    }

    std::size_t queueDepth() const { return buffer_.size(); }

    /** Hand a request to this server; panics if !canAccept(). */
    void submit(const workload::Request &request);

    /**
     * Enable batched serving (Insight 5: batching as a power and
     * throughput knob): when the server becomes free it coalesces up
     * to @p n buffered requests into one padded batch.  Size the
     * request buffer to at least @p n for batches to actually form.
     * Default 1 reproduces the paper's one-request-at-a-time setup.
     */
    void setMaxBatchSize(std::size_t n);
    std::size_t maxBatchSize() const { return maxBatchSize_; }

    /** Requests currently being served together (0 when idle). */
    std::size_t activeBatchSize() const
    {
        return active_ ? active_->requests.size() : 0;
    }

    /** Invoked at each completion (after stats are recorded). */
    void setCompletionCallback(CompletionCallback callback)
    {
        onComplete_ = std::move(callback);
    }
    /** @} */

    /** @name ClockControllable (OOB control target) */
    /** @{ */
    void applyClockLock(double mhz) override;
    void applyClockUnlock() override;
    void applyPowerBrake(bool engaged) override;
    double appliedClockLockMhz() const override;
    bool powerBrakeEngaged() const override;
    /** @} */

    /** Instantaneous electrical draw of the whole server. */
    double powerWatts() const
    {
        return crashed_ ? 0.0 : server_.powerWatts();
    }

    /**
     * Call @p listener whenever powerWatts() may have changed: on a
     * phase change, lock, brake, crash, restore and snapshot restore.
     * The server's power-domain leaf marks its ancestors' cached sums
     * stale with it.
     */
    void setPowerListener(std::function<void()> listener)
    {
        powerListener_ = std::move(listener);
    }

    /**
     * Scale all GPU activity by @p factor: the Section 6.6 experiment
     * where workloads become more power-intensive than profiled.
     */
    void setPowerScaleFactor(double factor);

    /**
     * Phase-aware power management (Section 5.2): run token phases
     * at @p mhz (0 disables).  Token phases are memory bound, so
     * this trades a small latency increase for a lower power floor;
     * prompt phases keep the full clock.  Composes with POLCA's
     * locks: the effective clock is the lower of the two.
     */
    void setPhaseAwareTokenClock(double mhz);

    double phaseAwareTokenClockMhz() const
    {
        return phaseTokenClockMhz_;
    }

    /** @name Crash/restart fault injection */
    /** @{ */
    /**
     * Take the server down hard: the active batch and everything
     * buffered are lost (those requests never complete), the draw
     * drops to zero, and — as after any reboot — the OOB clock lock
     * and power brake state are cleared.  POLCA's verification
     * guardrail is what re-establishes the lock afterwards.
     */
    void crash();

    /** Bring a crashed server back, empty and idle.  It rejoins
     *  dispatch on the next arrival routed to its pool. */
    void restore();

    /** @return true while crashed. */
    bool crashed() const { return crashed_; }

    /** Requests lost to crashes (in flight or buffered). */
    std::uint64_t droppedRequests() const { return droppedRequests_; }
    /** @} */

    /** Underlying power model (inspection/tests). */
    const power::ServerModel &serverModel() const { return server_; }

    /** @name Snapshot support */
    /** @{ */
    /** In-flight batch at a snapshot boundary, with the schedule
     *  position of its phase-end event. */
    struct BatchState
    {
        std::vector<workload::Request> requests;
        llm::Phase phase = llm::Phase::Prompt;
        double workRemaining = 0.0;
        double slowdown = 1.0;
        sim::Tick phaseUpdateTime = 0;
        sim::Tick phaseStart = 0;
        sim::Tick serviceStart = 0;
        sim::Tick completionWhen = 0;
        std::uint64_t completionSeq = 0;
    };

    /** Full mutable server state at a snapshot boundary.  The power
     *  model is a plain value (per-GPU activity, lock, cap, brake), so
     *  it is captured by copy. */
    struct State
    {
        /** Always engaged after saveState(); optional only because
         *  ServerModel has no default construction. */
        std::optional<power::ServerModel> server;
        double powerScale = 1.0;
        double policyLockMhz = 0.0;
        double phaseTokenClockMhz = 0.0;
        bool crashed = false;
        std::uint64_t droppedRequests = 0;
        std::optional<BatchState> active;
        std::vector<workload::Request> buffer;  ///< in arrival order
        std::uint64_t completed = 0;
        sim::Tick busyTicks = 0;
    };

    /** Capture mutable state (snapshot support). */
    [[nodiscard]] State saveState() const;

    /** Restore from a snapshot while the queue has a restore open;
     *  re-arms the phase-end event of any in-flight batch. */
    void restoreState(const State &state);
    /** @} */

    /** @name Statistics */
    /** @{ */
    std::uint64_t completedRequests() const { return completed_; }
    sim::Tick busyTicks() const { return busyTicks_; }
    /** @} */

  private:
    /**
     * FIFO of buffered requests that allocates nothing until a
     * request is buffered: a vector whose live requests start at
     * head_.  A pop advances head_ and a drained buffer resets to
     * empty; a push onto a vector that is at least half consumed
     * first erases the consumed prefix.  Pops are O(1) amortized and
     * the vector never holds more than twice the most requests
     * buffered at once.
     */
    class RequestBuffer
    {
      public:
        std::size_t size() const { return items_.size() - head_; }
        bool empty() const { return head_ == items_.size(); }
        void push(const workload::Request &request);
        /** Remove and return the oldest request; must not be empty. */
        workload::Request pop();
        void clear();
        /** Buffered requests, oldest first. */
        std::vector<workload::Request> requests() const;
        void assign(const std::vector<workload::Request> &requests);

      private:
        std::vector<workload::Request> items_;
        std::size_t head_ = 0;
    };

    struct ActiveBatch
    {
        std::vector<workload::Request> requests;
        llm::Phase phase;
        double workRemaining;       ///< ticks at max clock
        double slowdown;            ///< factor in effect
        sim::Tick phaseUpdateTime;  ///< when slowdown was applied
        sim::Tick phaseStart;       ///< when the current phase began
        sim::Tick serviceStart;
        sim::EventQueue::Handle completionEvent;
    };

    void startBatch(std::vector<workload::Request> requests);
    void startNextFromBuffer();
    void beginPhase(llm::Phase phase);
    void schedulePhaseEnd();
    void phaseEnded();
    void clockChanged();
    void applyDesiredClock();
    void refreshClock();
    void setPhaseActivity();
    double currentSlowdown(llm::Phase phase) const;
    void powerChanged();
    void availabilityChanged();

    /**
     * Batched configuration: batch size = #requests; input/output
     * sizes are the batch maxima (padded batching — conservative on
     * both power and latency).
     */
    llm::InferenceConfig
    configFor(const std::vector<workload::Request> &batch) const;

    sim::Simulation &sim_;
    power::ServerModel server_;
    // polca-snapshot: skip(phases_, immutable model config set at construction)
    llm::PhaseModel phases_;
    // polca-snapshot: skip(pool_, immutable placement config)
    workload::Priority pool_;
    // polca-snapshot: skip(id_, immutable identity)
    int id_;
    // polca-snapshot: skip(bufferSize_, immutable capacity config)
    std::size_t bufferSize_;
    // polca-snapshot: skip(role_, immutable role config)
    ServerRole role_;
    /// The model runs on GPUs 0 .. usedGpus_ - 1.
    // polca-snapshot: skip(usedGpus_, fixed GPU assignment from construction)
    std::size_t usedGpus_;
    double powerScale_ = 1.0;
    double policyLockMhz_ = 0.0;     ///< lock commanded via OOB
    double phaseTokenClockMhz_ = 0.0;  ///< phase-aware token clock
    bool crashed_ = false;
    std::uint64_t droppedRequests_ = 0;

    std::optional<ActiveBatch> active_;
    // polca-snapshot: skip(maxBatchSize_, setup-time config; set before warmup)
    std::size_t maxBatchSize_ = 1;
    RequestBuffer buffer_;
    CompletionCallback onComplete_;
    AvailabilityCallback onAvailability_;
    std::function<void()> powerListener_;
    // polca-snapshot: skip(reported_, derived; recomputed on restore)
    Availability reported_ = Availability::Idle;  ///< last reported
    std::uint64_t completed_ = 0;
    sim::Tick busyTicks_ = 0;

    // polca-snapshot: skip(obs_, observability wiring; re-attached by the harness)
    ObsHandles obs_;
};

} // namespace polca::cluster

