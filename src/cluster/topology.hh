/**
 * @file
 * Site builder: constructs the power-domain tree an experiment runs
 * on.  A declarative TopologyConfig (the scenario layer's
 * `[topology]` section) builds a heterogeneous servers → racks →
 * rows → site tree; a RowConfig (the `[row]` section) builds the
 * paper's flat row (Figure 2, Table 2) as the one-row case, a tree
 * whose root is the row with its servers directly beneath it.
 *
 * Row groups mix GPU generations and served models across the site
 * (Wilkins et al.: site power is the compositional rollup of
 * heterogeneous per-server traces).  Budgets oversubscribe per
 * level: each row's budget is a fraction of its nameplate sum and
 * the site's budget a fraction of the summed row budgets, so a site
 * can be oversubscribed even when every row is in budget — the
 * statistical-multiplexing bet the paper makes at row scope
 * (Insight 9), applied once more at site scope.
 *
 * Per-domain randomness is keyed by domain *path* (sim::Rng
 * forkPath), not by draw order: adding a row group, or growing one,
 * never reshuffles the trace or dispatcher streams of the rows that
 * were already there.
 */

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/dispatcher.hh"
#include "cluster/power_domain.hh"
#include "llm/model_spec.hh"
#include "power/server_model.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "telemetry/breaker_model.hh"

namespace polca::cluster {

/**
 * The flat `[row]` deployment: one row (PDU domain), the unit at
 * which power is provisioned, measured, and oversubscribed.  Site
 * row groups inherit its per-server knobs (buffer size, batching,
 * phase-aware clock).
 */
struct RowConfig
{
    power::ServerSpec serverSpec = power::ServerSpec::dgxA100_80gb();

    /** Model served by every endpoint (POLCA eval: BLOOM-176B). */
    std::string modelName = "BLOOM-176B";

    /** Full model spec to serve instead of looking @ref modelName up
     *  in the catalog — lets scenario files tweak or define models
     *  that are not Table 3 entries. */
    std::optional<llm::ModelSpec> modelOverride;

    /** Servers the row's power budget was provisioned for. */
    int baseServers = 40;

    /** Extra servers added via oversubscription (fraction of base;
     *  0.30 = the paper's headline +30 %). */
    double addedServerFraction = 0.0;

    /** Fraction of servers placed in the low-priority pool; the
     *  harness sets the flat row's from the workload mix. */
    double lpServerFraction = 0.5;

    /**
     * Provisioned (budgeted) watts per base server.  The row budget
     * is baseServers x this.  Defaults to a derated DGX-A100 budget
     * (Section 5: observed peak ~5.7 kW rather than the 6.5 kW
     * rating), which puts default-fleet peak utilization near the
     * 79 % the paper reports for production inference rows (Table 4).
     */
    double provisionedPerServerWatts = 4950.0;

    /** Row telemetry cadence (Table 1: 2 s); the harness copies the
     *  flat row's from TopologyConfig. */
    sim::Tick telemetryInterval = sim::secondsToTicks(2);

    /** Per-server request buffer (Section 6.6: one). */
    std::size_t bufferSize = 1;

    /** Padded batching (Insight 5): coalesce up to this many
     *  buffered requests per service turn.  Size bufferSize to at
     *  least this for batches to form; 1 = the paper's setup. */
    std::size_t maxBatchSize = 1;

    /** Phase-aware power management (Section 5.2): run token phases
     *  at this SM clock on every server (0 disables). */
    double phaseAwareTokenClockMhz = 0.0;

    /** Probability each 2 s row reading is silently dropped
     *  (OOB telemetry unreliability, Section 3.3). */
    double telemetryDropoutProbability = 0.0;

    /** Servers the row deploys: the base plus the added fraction of
     *  it, rounded to the nearest server. */
    int deployedServers() const;
};

/** The model @p row serves: its override when set, else the catalog
 *  entry named by RowConfig::modelName. */
llm::ModelSpec effectiveModelSpec(const RowConfig &row);

/**
 * One homogeneous group of rows ([[topology.rows]]): same rack
 * geometry, GPU generation, and served model.
 */
struct TopologyRowGroup
{
    /**
     * Group name; rows are named `<name><index>` ("row0", "row3"),
     * racks `rack<index>`, so metric paths look like
     * `site.row3.rack1.power`.  Must be lowercase [a-z0-9_] and
     * unique across groups.
     */
    std::string name = "row";

    int rows = 1;
    int racksPerRow = 4;
    int serversPerRack = 10;

    /** Server preset (power::ServerSpec::byName). */
    std::string server = "DGX-A100-80GB";

    /** Catalog model served by every endpoint in the group. */
    std::string model = "BLOOM-176B";

    /** Fraction of each row's servers in the low-priority pool. */
    double lpServerFraction = 0.5;

    /** Nameplate provisioned watts per server. */
    double provisionedPerServerWatts = 4950.0;
};

/**
 * The `[topology]` section: per-level counts, budgets, breakers.  The
 * telemetry cadence and the row breaker keys (rowBreakerLimitFraction,
 * breakerTripDuration) also drive the flat row, enabled or not: the
 * flat row is the one-row tree.
 */
struct TopologyConfig
{
    /** Build the site tree instead of the single flat row. */
    bool enabled = false;

    /** Telemetry cadence of every non-leaf domain manager, the flat
     *  row's included. */
    sim::Tick telemetryInterval = sim::secondsToTicks(2);

    /** Row budget as a fraction of the row's nameplate sum;
     *  < 1 oversubscribes every row. */
    double rowBudgetFraction = 1.0;

    /** Site budget as a fraction of the summed row budgets;
     *  < 1 oversubscribes the site on top of the rows. */
    double siteBudgetFraction = 1.0;

    /** @name Breaker trip limits, as multiples of the level budget
     *  (NEC-style 80 % continuous rating -> 1.25x).  0 = no breaker
     *  at that level; otherwise at least 1 (the scenario binder
     *  rejects a breaker below its budget). */
    /** @{ */
    double rackBreakerLimitFraction = 0.0;
    double rowBreakerLimitFraction = 1.25;
    double siteBreakerLimitFraction = 1.25;
    /** @} */

    /** Sustained time above a limit before that breaker trips. */
    sim::Tick breakerTripDuration = sim::secondsToTicks(30);

    std::vector<TopologyRowGroup> groups;

    int numRows() const;
    int numServers() const;

    /** A breaker over a level budget of @p budgetWatts tripping at
     *  @p limitFraction of it after breakerTripDuration. */
    telemetry::BreakerModel::Config breaker(double budgetWatts,
                                            double limitFraction) const;
};

/** True when @p name is a valid TopologyRowGroup::name: non-empty
 *  lowercase [a-z0-9_], safe inside a dotted metric path. */
bool validGroupName(const std::string &name);

/**
 * Owns the power-domain tree plus the per-row dispatchers.  The tree
 * is finalized (managers and breakers running) on return; traffic,
 * managers, and observability are attached by the experiment
 * harness.
 */
class Site
{
  public:
    /** One row's serving cell: its domain, dispatcher, model, and
     *  random stream. */
    struct SiteRow
    {
        std::string name;
        PowerDomain *domain = nullptr;
        std::unique_ptr<Dispatcher> dispatcher;

        /** The model the row's servers serve; one immutable spec per
         *  row group, shared with every server of the group. */
        std::shared_ptr<const llm::ModelSpec> model;

        /** The row's stream; per-row components (dispatcher,
         *  manager) fork from it.  In a site tree it is forkPath(name)
         *  of the site stream, so the row's randomness depends only
         *  on (site seed, row name). */
        sim::Rng rng;
    };

    /**
     * Build the `[topology]` tree.  @p shared supplies the row-scope
     * knobs every group inherits (buffer size, batching, phase-aware
     * clock); counts, budgets, and hardware come from @p config.
     * @p recordSeries keeps the site's and every row's full reading
     * series.
     */
    Site(sim::Simulation &sim, const TopologyConfig &config,
         const RowConfig &shared, const sim::Rng &rng,
         bool recordSeries = false);

    /**
     * Build the flat `[row]` deployment as a one-row tree: the root
     * is the row domain "row", with base + added servers directly
     * beneath it (no rack level, no site node) and a budget of
     * baseServers x provisionedPerServerWatts.  @p rng is the row's
     * own stream: the dispatcher forks 0x0d15 and telemetry dropout
     * 0xD80 from it.  @p recordSeries keeps the row's full reading
     * series.
     */
    Site(sim::Simulation &sim, const RowConfig &row, sim::Rng rng,
         bool recordSeries = false);

    PowerDomain &root() { return *root_; }
    const PowerDomain &root() const { return *root_; }

    std::vector<SiteRow> &rows() { return rows_; }
    const std::vector<SiteRow> &rows() const { return rows_; }

    int numServers() const { return root_->numServers(); }

  private:
    std::unique_ptr<PowerDomain> root_;
    std::vector<SiteRow> rows_;
};

} // namespace polca::cluster
