#include "cluster/topology.hh"

#include <cmath>
#include <memory>
#include <unordered_set>

#include "cluster/allocator.hh"
#include "sim/logging.hh"

namespace polca::cluster {

int
TopologyConfig::numRows() const
{
    int total = 0;
    for (const TopologyRowGroup &group : groups)
        total += group.rows;
    return total;
}

int
TopologyConfig::numServers() const
{
    int total = 0;
    for (const TopologyRowGroup &group : groups)
        total += group.rows * group.racksPerRow * group.serversPerRack;
    return total;
}

telemetry::BreakerModel::Config
TopologyConfig::breaker(double budgetWatts, double limitFraction) const
{
    telemetry::BreakerModel::Config breaker;
    breaker.provisionedWatts = budgetWatts;
    breaker.breakerLimitWatts = budgetWatts * limitFraction;
    breaker.tripDuration = breakerTripDuration;
    return breaker;
}

llm::ModelSpec
effectiveModelSpec(const RowConfig &row)
{
    if (row.modelOverride)
        return *row.modelOverride;
    return llm::ModelCatalog().byName(row.modelName);
}

int
RowConfig::deployedServers() const
{
    return baseServers +
        static_cast<int>(std::lround(addedServerFraction * baseServers));
}

bool
validGroupName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
              c == '_'))
            return false;
    }
    return true;
}

namespace {

/** Build server @p id on its group's shared specs with the row-scope
 *  knobs of @p shared, register it with @p dispatcher, and adopt it as
 *  a leaf of @p parent. */
void
deployServer(sim::Simulation &sim, PowerDomain &parent,
             Dispatcher &dispatcher,
             const std::shared_ptr<const power::ServerSpec> &spec,
             const std::shared_ptr<const llm::ModelSpec> &model,
             workload::Priority pool, int id, double provisionedWatts,
             const RowConfig &shared)
{
    auto server = std::make_unique<InferenceServer>(
        sim, spec, model, pool, id, shared.bufferSize);
    if (shared.phaseAwareTokenClockMhz > 0.0)
        server->setPhaseAwareTokenClock(shared.phaseAwareTokenClockMhz);
    if (shared.maxBatchSize > 1)
        server->setMaxBatchSize(shared.maxBatchSize);
    dispatcher.addServer(server.get());
    parent.addServer(std::move(server), provisionedWatts);
}

} // namespace

Site::Site(sim::Simulation &sim, const TopologyConfig &config,
           const RowConfig &shared, const sim::Rng &rng,
           bool recordSeries)
{
    if (config.groups.empty())
        sim::fatal("topology: no row groups");

    std::unordered_set<std::string> names;
    double totalRowBudget = 0.0;
    for (const TopologyRowGroup &group : config.groups) {
        if (!validGroupName(group.name)) {
            sim::fatal("topology: group name '", group.name,
                       "' is not lowercase [a-z0-9_]");
        }
        if (!names.insert(group.name).second)
            sim::fatal("topology: duplicate group name '", group.name, "'");
        if (group.rows <= 0 || group.racksPerRow <= 0 ||
            group.serversPerRack <= 0)
            sim::fatal("topology: non-positive count in group '",
                       group.name, "'");
        int serversPerRow = group.racksPerRow * group.serversPerRack;
        totalRowBudget += group.rows * config.rowBudgetFraction *
            group.provisionedPerServerWatts * serversPerRow;
    }

    llm::ModelCatalog catalog;

    PowerDomain::Options siteOptions;
    siteOptions.name = "site";
    siteOptions.level = DomainLevel::Site;
    siteOptions.budgetWatts = config.siteBudgetFraction * totalRowBudget;
    siteOptions.telemetryInterval = config.telemetryInterval;
    siteOptions.recordSeries = recordSeries;
    root_ = std::make_unique<PowerDomain>(sim, siteOptions);

    for (const TopologyRowGroup &group : config.groups) {
        // One immutable spec of each kind per group, shared by all of
        // the group's servers.
        auto spec = std::make_shared<const power::ServerSpec>(
            power::ServerSpec::byName(group.server));
        auto model = std::make_shared<const llm::ModelSpec>(
            catalog.byName(group.model));
        int serversPerRow = group.racksPerRow * group.serversPerRack;
        double rowBudget = config.rowBudgetFraction *
            group.provisionedPerServerWatts * serversPerRow;

        for (int r = 0; r < group.rows; ++r) {
            SiteRow siteRow;
            siteRow.name = group.name + std::to_string(r);
            siteRow.model = model;
            // Path-keyed stream: depends only on (site seed, row
            // name), never on how many other rows exist.
            siteRow.rng = rng.forkPath(siteRow.name);
            siteRow.dispatcher = std::make_unique<Dispatcher>(
                sim, siteRow.rng.fork(0x0d15));

            PowerDomain::Options rowOptions;
            rowOptions.name = siteRow.name;
            rowOptions.level = DomainLevel::Row;
            rowOptions.budgetWatts = rowBudget;
            rowOptions.telemetryInterval = config.telemetryInterval;
            rowOptions.recordSeries = recordSeries;
            PowerDomain &rowDomain = root_->addChild(rowOptions);
            siteRow.domain = &rowDomain;
            // `[row] telemetry_dropout_probability` drops row
            // readings, drawn from the row's own stream as in the
            // flat row.
            if (shared.telemetryDropoutProbability > 0.0) {
                rowDomain.manager()->setDropoutProbability(
                    shared.telemetryDropoutProbability,
                    siteRow.rng.fork(0xD80));
            }

            std::vector<workload::Priority> priorities =
                allocatePriorities(serversPerRow,
                                   group.lpServerFraction);
            int id = 0;
            for (int k = 0; k < group.racksPerRow; ++k) {
                PowerDomain::Options rackOptions;
                rackOptions.name = "rack" + std::to_string(k);
                rackOptions.level = DomainLevel::Rack;
                rackOptions.telemetryInterval = config.telemetryInterval;
                PowerDomain &rack = rowDomain.addChild(rackOptions);
                for (int s = 0; s < group.serversPerRack; ++s, ++id) {
                    deployServer(sim, rack, *siteRow.dispatcher, spec,
                                 model,
                                 priorities[static_cast<std::size_t>(id)],
                                 id, group.provisionedPerServerWatts,
                                 shared);
                }
                if (config.rackBreakerLimitFraction > 0.0) {
                    rack.armBreaker(config.breaker(
                        group.provisionedPerServerWatts *
                            group.serversPerRack,
                        config.rackBreakerLimitFraction));
                }
            }
            if (config.rowBreakerLimitFraction > 0.0) {
                rowDomain.armBreaker(config.breaker(
                    rowBudget, config.rowBreakerLimitFraction));
            }
            rows_.push_back(std::move(siteRow));
        }
    }

    if (config.siteBreakerLimitFraction > 0.0) {
        root_->armBreaker(config.breaker(
            root_->budgetWatts(), config.siteBreakerLimitFraction));
    }
    root_->finalize();
}

Site::Site(sim::Simulation &sim, const RowConfig &row, sim::Rng rng,
           bool recordSeries)
{
    if (row.baseServers <= 0)
        sim::fatal("Row: non-positive base server count");
    if (row.addedServerFraction < 0.0)
        sim::fatal("Row: negative added-server fraction");

    SiteRow siteRow;
    siteRow.name = "row";
    siteRow.model =
        std::make_shared<const llm::ModelSpec>(effectiveModelSpec(row));
    siteRow.rng = std::move(rng);

    PowerDomain::Options options;
    options.name = siteRow.name;
    options.level = DomainLevel::Row;
    options.budgetWatts = row.provisionedPerServerWatts * row.baseServers;
    options.telemetryInterval = row.telemetryInterval;
    options.recordSeries = recordSeries;
    root_ = std::make_unique<PowerDomain>(sim, options);
    siteRow.domain = root_.get();

    siteRow.dispatcher =
        std::make_unique<Dispatcher>(sim, siteRow.rng.fork(0x0d15));
    if (row.telemetryDropoutProbability > 0.0) {
        root_->manager()->setDropoutProbability(
            row.telemetryDropoutProbability, siteRow.rng.fork(0xD80));
    }

    int total = row.deployedServers();
    std::vector<workload::Priority> priorities =
        allocatePriorities(total, row.lpServerFraction);
    auto spec = std::make_shared<const power::ServerSpec>(row.serverSpec);
    for (int i = 0; i < total; ++i) {
        deployServer(sim, *root_, *siteRow.dispatcher, spec, siteRow.model,
                     priorities[static_cast<std::size_t>(i)], i,
                     row.provisionedPerServerWatts, row);
    }
    rows_.push_back(std::move(siteRow));
    root_->finalize();
}

} // namespace polca::cluster
