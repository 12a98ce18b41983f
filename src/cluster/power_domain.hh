/**
 * @file
 * Recursive power-domain tree: servers → racks → rows → sites.
 *
 * The paper provisions and oversubscribes power per row (Figure 2,
 * Table 2), but rows compose into sites with their own upstream
 * breakers and budgets, and site-level power must be synthesized
 * compositionally from the per-server draws (Wilkins et al., "From
 * Servers to Sites").  A PowerDomain models one node of that tree:
 * every non-leaf level owns an oversubscription budget, an
 * aggregating telemetry::DomainManager that rolls child readings up
 * on its own cadence, and (optionally) a telemetry::BreakerModel —
 * so a site breaker can trip while every row is in budget, and vice
 * versa.  Leaves wrap one InferenceServer (or, for tests, an
 * arbitrary power source).
 *
 * The flat Row/Datacenter layer is a thin view over this tree: a
 * legacy row is a row-level domain whose children are server leaves,
 * and a datacenter is a site-level domain of such rows.
 *
 * Sums are computed once per change, not once per read: every server
 * leaf reports its draw changes, which flag the leaf's slot in its
 * parent and mark the cached sums of its ancestors stale.  A read
 * re-sums only the stale nodes beneath it, and each re-sum re-reads
 * only the children whose slots are flagged (see DESIGN.md, "Power
 * accounting").
 */

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/inference_server.hh"
#include "sim/simulation.hh"
#include "telemetry/breaker_model.hh"
#include "telemetry/domain_manager.hh"

namespace polca::cluster {

/** Tree levels, leaf to root. */
enum class DomainLevel
{
    Server,
    Rack,
    Row,
    Site,
};

const char *toString(DomainLevel level);

/**
 * One node of the power-domain tree.  Domains own their children;
 * build the tree root-down with addChild()/addServer()/addLeaf(),
 * then finalize() the root once to wire each non-leaf manager to the
 * node's own powerWatts() (one source, so a manager, a breaker and an
 * energy meter on one node share one re-sum per instant, and a
 * parent's reading is bit-for-bit the left-to-right sum of its
 * children's readings) and start every manager and armed breaker.
 */
class PowerDomain
{
    /** Passkey: lets make_unique reach the child constructor while
     *  keeping tree construction behind addChild()/addLeaf(). */
    struct Internal
    {
        explicit Internal() = default;
    };

  public:
    using PowerSource = std::function<double()>;

    struct Options
    {
        /** Node name; path() joins ancestor names with dots, so the
         *  name doubles as a metric-path segment ("row3", "rack1"). */
        std::string name = "domain";

        DomainLevel level = DomainLevel::Row;

        /**
         * Oversubscription budget in watts; overdraw and utilization
         * at this level are accounted against it.  0 means "not
         * oversubscribed": the budget equals the nameplate
         * provisioned sum of the subtree's leaves.
         */
        double budgetWatts = 0.0;

        /** Cadence of this domain's aggregating DomainManager;
         *  0 gives the node no manager of its own. */
        sim::Tick telemetryInterval = 0;

        /** Record the manager's full reading series. */
        bool recordSeries = false;
    };

    /** Construct a tree root. */
    PowerDomain(sim::Simulation &sim, Options options);

    /** Child constructor (via addChild(); public only for the
     *  Internal passkey). */
    PowerDomain(Internal, sim::Simulation &sim, Options options,
                PowerDomain *parent);

    PowerDomain(const PowerDomain &) = delete;
    PowerDomain &operator=(const PowerDomain &) = delete;

    /** @name Tree construction (before finalize()) */
    /** @{ */
    /** Add an interior child domain. */
    PowerDomain &addChild(Options options);

    /** Add a leaf child wrapping @p server, provisioned at
     *  @p budgetWatts nameplate.  @return the adopted server. */
    InferenceServer &addServer(std::unique_ptr<InferenceServer> server,
                               double budgetWatts);

    /** Add a leaf child over an arbitrary power source (synthetic
     *  loads in tests, non-server equipment). */
    PowerDomain &addLeaf(std::string name, PowerSource supply,
                         double budgetWatts);

    /**
     * Arm a breaker over this domain's instantaneous draw.  Zero
     * Config::provisionedWatts defaults to budgetWatts().  Started
     * by finalize() (immediately, when already finalized).
     */
    void armBreaker(telemetry::BreakerModel::Config config);

    /** Recursively wire managers to children and start managers and
     *  breakers.  Idempotent; call once on the root. */
    void finalize();
    /** @} */

    /** @name Identity and structure */
    /** @{ */
    const std::string &name() const { return options_.name; }

    /** Dotted path from the root ("site.row3.rack1"); doubles as
     *  the domain's metric namespace. */
    std::string path() const;

    DomainLevel level() const { return options_.level; }

    const PowerDomain *parent() const { return parent_; }

    bool isLeaf() const { return children_.empty(); }

    const std::vector<std::unique_ptr<PowerDomain>> &children() const
    {
        return children_;
    }

    /** Wrapped server; null unless this is a server leaf. */
    InferenceServer *server() { return server_.get(); }
    const InferenceServer *server() const { return server_.get(); }

    /** Server leaves in this subtree. */
    int numServers() const;

    /** All subtree servers, in deterministic construction order. */
    std::vector<InferenceServer *> servers();
    std::vector<const InferenceServer *> servers() const;

    /** Subtree servers in the @p priority pool. */
    std::vector<InferenceServer *> pool(workload::Priority priority);
    /** @} */

    /** @name Power accounting */
    /** @{ */
    /** Instantaneous subtree draw, watts.  Computed child by child,
     *  so a parent's value is exactly the left-to-right sum of its
     *  children's values at the same instant.  Interior nodes whose
     *  leaves are all servers cache the sum and each child's last
     *  draw, and re-sum only after a leaf below reported a change,
     *  re-reading only the children on a reporting leaf's path. */
    double powerWatts() const;

    /** Nameplate provisioned power: the sum of leaf budgets. */
    double provisionedWatts() const;

    /** Oversubscription budget (explicit, or provisionedWatts()
     *  when none was set). */
    double budgetWatts() const;

    /**
     * The budget this domain can actually count on once every
     * ancestor's budget is shared out: the minimum over this domain
     * and its ancestors of (ancestor budget x this subtree's share
     * of the ancestor's provisioned power).  A power manager
     * attached at this level caps against this value, which is how
     * a row manager becomes aware of a site budget tighter than the
     * sum of row budgets.
     */
    double effectiveBudgetWatts() const;
    /** @} */

    /** @name Telemetry and protection */
    /** @{ */
    /** Aggregating manager; null for leaves and interval-0 nodes. */
    telemetry::DomainManager *manager() { return manager_.get(); }
    const telemetry::DomainManager *manager() const
    {
        return manager_.get();
    }

    /** Breaker; null unless armBreaker() was called. */
    telemetry::BreakerModel *breaker() { return breaker_.get(); }
    const telemetry::BreakerModel *breaker() const
    {
        return breaker_.get();
    }
    /** @} */

    /** Pre-order traversal of the subtree. */
    void visit(const std::function<void(PowerDomain &)> &fn);
    void visit(const std::function<void(const PowerDomain &)> &fn) const;

  private:
    /** Left-to-right sum of the children's readings. */
    double sumChildren() const;

    /** The same sum walked down to the leaves without any cache: the
     *  reference the cached sums are cross-checked against. */
    double walkWatts() const;

    /** Report a change of this node's draw: flag its slot in the
     *  parent and mark the parent stale, and so on upward, stopping
     *  after the first ancestor that already was stale (the slots
     *  above it are flagged already). */
    void markAncestorsStale();

    sim::Simulation &sim_;
    Options options_;
    PowerDomain *parent_ = nullptr;
    /** Index of this node in its parent's children_ and slots. */
    std::size_t slot_ = 0;
    std::vector<std::unique_ptr<PowerDomain>> children_;

    /** Exactly one of server_/supply_ is set on leaves. */
    std::unique_ptr<InferenceServer> server_;
    PowerSource supply_;
    double leafBudgetWatts_ = 0.0;

    /** Whether powerWatts() caches; decided by finalize(): true for
     *  interior nodes whose every leaf is a server (an arbitrary
     *  PowerSource cannot report its changes). */
    bool cached_ = false;
    /** Cached sum is out of date (cached nodes only).  Invariant: a
     *  stale node's parent is stale and has the node's slot flagged. */
    mutable bool stale_ = true;
    mutable double cachedWatts_ = 0.0;
    /** Cached nodes only, one slot per child in child order: the
     *  draw last read from the child, and whether the child changed
     *  since (set by markAncestorsStale(), cleared by a re-sum). */
    mutable std::vector<double> childWatts_;
    mutable std::vector<unsigned char> childChanged_;

    std::unique_ptr<telemetry::DomainManager> manager_;
    std::unique_ptr<telemetry::BreakerModel> breaker_;
    bool finalized_ = false;
};

} // namespace polca::cluster
