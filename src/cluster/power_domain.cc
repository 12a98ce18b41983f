#include "cluster/power_domain.hh"

#include <algorithm>

#include "core/contracts.hh"
#include "sim/logging.hh"

namespace polca::cluster {

const char *
toString(DomainLevel level)
{
    switch (level) {
      case DomainLevel::Server:
        return "server";
      case DomainLevel::Rack:
        return "rack";
      case DomainLevel::Row:
        return "row";
      case DomainLevel::Site:
        return "site";
    }
    return "?";
}

PowerDomain::PowerDomain(sim::Simulation &sim, Options options)
    : PowerDomain(Internal{}, sim, std::move(options), nullptr)
{}

PowerDomain::PowerDomain(Internal, sim::Simulation &sim,
                         Options options, PowerDomain *parent)
    : sim_(sim), options_(std::move(options)), parent_(parent)
{
    if (options_.name.empty())
        sim::fatal("PowerDomain: empty name");
    if (options_.budgetWatts < 0.0)
        sim::fatal("PowerDomain: negative budget");
    if (options_.telemetryInterval > 0) {
        manager_ = std::make_unique<telemetry::DomainManager>(
            sim_, options_.telemetryInterval, options_.recordSeries);
    }
}

PowerDomain &
PowerDomain::addChild(Options options)
{
    if (finalized_)
        sim::fatal("PowerDomain: addChild after finalize");
    if (server_ || supply_)
        sim::fatal("PowerDomain: leaf '", path(), "' cannot have children");
    children_.push_back(std::make_unique<PowerDomain>(
        Internal{}, sim_, std::move(options), this));
    return *children_.back();
}

InferenceServer &
PowerDomain::addServer(std::unique_ptr<InferenceServer> server,
                       double budgetWatts)
{
    if (!server)
        sim::fatal("PowerDomain: null server");
    Options options;
    options.name = "server" + std::to_string(server->id());
    options.level = DomainLevel::Server;
    PowerDomain &leaf = addChild(std::move(options));
    leaf.server_ = std::move(server);
    leaf.leafBudgetWatts_ = budgetWatts;
    leaf.server_->setPowerListener(
        [&leaf] { leaf.markAncestorsStale(); });
    return *leaf.server_;
}

PowerDomain &
PowerDomain::addLeaf(std::string name, PowerSource supply,
                     double budgetWatts)
{
    if (!supply)
        sim::fatal("PowerDomain: empty leaf power source");
    Options options;
    options.name = std::move(name);
    options.level = DomainLevel::Server;
    PowerDomain &leaf = addChild(std::move(options));
    leaf.supply_ = std::move(supply);
    leaf.leafBudgetWatts_ = budgetWatts;
    return leaf;
}

void
PowerDomain::armBreaker(telemetry::BreakerModel::Config config)
{
    if (breaker_)
        sim::fatal("PowerDomain: breaker already armed at '", path(), "'");
    if (config.provisionedWatts <= 0.0)
        config.provisionedWatts = budgetWatts();
    breaker_ = std::make_unique<telemetry::BreakerModel>(
        sim_, [this] { return powerWatts(); }, config);
    if (finalized_)
        breaker_->start();
}

void
PowerDomain::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;
    for (auto &child : children_)
        child->finalize();
    cached_ = !isLeaf() &&
        std::all_of(children_.begin(), children_.end(),
                    [](const std::unique_ptr<PowerDomain> &child) {
                        return child->server_ || child->cached_;
                    });
    if (manager_) {
        for (auto &child : children_) {
            PowerDomain *raw = child.get();
            manager_->addSource([raw] { return raw->powerWatts(); });
        }
        manager_->start();
    }
    if (breaker_)
        breaker_->start();
}

std::string
PowerDomain::path() const
{
    if (!parent_)
        return options_.name;
    return parent_->path() + "." + options_.name;
}

int
PowerDomain::numServers() const
{
    if (isLeaf())
        return server_ ? 1 : 0;
    int total = 0;
    for (const auto &child : children_)
        total += child->numServers();
    return total;
}

std::vector<InferenceServer *>
PowerDomain::servers()
{
    std::vector<InferenceServer *> out;
    visit([&out](PowerDomain &domain) {
        if (domain.server_)
            out.push_back(domain.server_.get());
    });
    return out;
}

std::vector<const InferenceServer *>
PowerDomain::servers() const
{
    std::vector<const InferenceServer *> out;
    visit([&out](const PowerDomain &domain) {
        if (domain.server_)
            out.push_back(domain.server_.get());
    });
    return out;
}

std::vector<InferenceServer *>
PowerDomain::pool(workload::Priority priority)
{
    std::vector<InferenceServer *> out;
    visit([&out, priority](PowerDomain &domain) {
        if (domain.server_ && domain.server_->pool() == priority)
            out.push_back(domain.server_.get());
    });
    return out;
}

double
PowerDomain::powerWatts() const
{
    if (server_)
        return server_->powerWatts();
    if (supply_)
        return supply_();
    if (!cached_)
        return sumChildren();
    if (stale_) {
        cachedWatts_ = sumChildren();
        stale_ = false;
    }
    POLCA_DCHECK(core::bitwiseEqual(cachedWatts_, walkWatts()),
                 "domain '", path(), "': cached sum ", cachedWatts_,
                 " W != child-order walk ", walkWatts(),
                 " W (missed invalidation)");
    return cachedWatts_;
}

double
PowerDomain::walkWatts() const
{
    if (server_)
        return server_->powerWatts();
    if (supply_)
        return supply_();
    double total = 0.0;
    for (const auto &child : children_)
        total += child->walkWatts();
    return total;
}

double
PowerDomain::sumChildren() const
{
    double total = 0.0;
    for (const auto &child : children_)
        total += child->powerWatts();
    return total;
}

void
PowerDomain::markAncestorsStale()
{
    for (PowerDomain *node = parent_; node && !node->stale_;
         node = node->parent_)
        node->stale_ = true;
}

double
PowerDomain::provisionedWatts() const
{
    if (isLeaf())
        return leafBudgetWatts_;
    double total = 0.0;
    for (const auto &child : children_)
        total += child->provisionedWatts();
    return total;
}

double
PowerDomain::budgetWatts() const
{
    return options_.budgetWatts > 0.0 ? options_.budgetWatts
                                      : provisionedWatts();
}

double
PowerDomain::effectiveBudgetWatts() const
{
    double effective = budgetWatts();
    double provisioned = provisionedWatts();
    for (const PowerDomain *ancestor = parent_; ancestor;
         ancestor = ancestor->parent_) {
        double ancestorProvisioned = ancestor->provisionedWatts();
        if (ancestorProvisioned <= 0.0)
            continue;
        effective = std::min(
            effective, ancestor->budgetWatts() *
                           (provisioned / ancestorProvisioned));
    }
    return effective;
}

void
PowerDomain::visit(const std::function<void(PowerDomain &)> &fn)
{
    fn(*this);
    for (auto &child : children_)
        child->visit(fn);
}

void
PowerDomain::visit(
    const std::function<void(const PowerDomain &)> &fn) const
{
    fn(*this);
    for (const auto &child : children_) {
        const PowerDomain &node = *child;
        node.visit(fn);
    }
}

} // namespace polca::cluster
