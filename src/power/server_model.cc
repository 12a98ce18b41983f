#include "power/server_model.hh"

#include <algorithm>
#include <memory>

#include "core/contracts.hh"
#include "sim/logging.hh"

namespace polca::power {

ServerSpec
ServerSpec::dgxA100_80gb()
{
    ServerSpec spec;
    spec.name = "DGX-A100-80GB";
    spec.gpu = GpuSpec::a100_80gb();
    spec.numGpus = 8;
    spec.ratedPowerWatts = 6500.0;
    // Host calibrated so the observed peak is ~5700 W and GPUs are
    // ~60 % of server draw under load (Insight 8).
    spec.hostIdleWatts = 900.0;
    spec.hostGpuTrackingFactor = 0.47;
    // Figure 3 provisioned breakdown: ~50 % GPUs, ~25 % fans.
    spec.provisionedFansWatts = 1625.0;
    spec.provisionedCpuWatts = 700.0;
    spec.provisionedMemoryWatts = 450.0;
    spec.provisionedOtherWatts = 525.0;
    return spec;
}

ServerSpec
ServerSpec::dgxA100_40gb()
{
    ServerSpec spec = dgxA100_80gb();
    spec.name = "DGX-A100-40GB";
    spec.gpu = GpuSpec::a100_40gb();
    return spec;
}

ServerSpec
ServerSpec::dgxH100()
{
    ServerSpec spec;
    spec.name = "DGX-H100";
    spec.gpu = GpuSpec::h100_80gb();
    spec.numGpus = 8;
    spec.ratedPowerWatts = 10200.0;
    spec.hostIdleWatts = 1300.0;
    spec.hostGpuTrackingFactor = 0.45;
    spec.provisionedFansWatts = 2500.0;
    spec.provisionedCpuWatts = 1100.0;
    spec.provisionedMemoryWatts = 500.0;
    spec.provisionedOtherWatts = 500.0;
    return spec;
}

const std::vector<ServerSpec> &
ServerSpec::presets()
{
    static const std::vector<ServerSpec> all = {dgxA100_80gb(),
                                                dgxA100_40gb(), dgxH100()};
    return all;
}

ServerSpec
ServerSpec::byName(const std::string &name)
{
    for (const ServerSpec &spec : presets()) {
        if (spec.name == name)
            return spec;
    }
    sim::fatal("ServerSpec::byName: unknown server preset '", name, "'");
}

double
ServerSpec::provisionedGpuWatts() const
{
    return static_cast<double>(numGpus) * gpu.tdpWatts;
}

std::vector<std::pair<std::string, double>>
ServerSpec::provisionedBreakdown() const
{
    return {
        {"GPUs", provisionedGpuWatts()},
        {"Fans", provisionedFansWatts},
        {"CPUs", provisionedCpuWatts},
        {"Memory", provisionedMemoryWatts},
        {"Other", provisionedOtherWatts},
    };
}

ServerModel::ServerModel(ServerSpec spec)
    : ServerModel(std::make_shared<const ServerSpec>(std::move(spec)))
{
}

ServerModel::ServerModel(std::shared_ptr<const ServerSpec> spec)
    : spec_(std::move(spec))
{
    POLCA_CHECK(spec_ != nullptr, "ServerModel: null spec");
    if (spec_->numGpus == 0)
        sim::fatal("ServerModel: server '", spec_->name, "' has no GPUs");
    // Aliasing pointer: the GPUs share the server spec's block.
    std::shared_ptr<const GpuSpec> gpuSpec(spec_, &spec_->gpu);
    gpus_.reserve(spec_->numGpus);
    for (std::size_t i = 0; i < spec_->numGpus; ++i)
        gpus_.emplace_back(gpuSpec);
}

ServerModel::Draw
ServerModel::evaluate() const
{
    Draw d;
    for (const auto &gpu : gpus_)
        d.gpuWatts += gpu.powerWatts();
    double gpuIdle = static_cast<double>(gpus_.size()) *
        spec_->gpu.idleWatts;
    double gpuDynamic = std::max(0.0, d.gpuWatts - gpuIdle);
    d.hostWatts = spec_->hostIdleWatts +
        spec_->hostGpuTrackingFactor * gpuDynamic;
    d.totalWatts = d.hostWatts + d.gpuWatts;
    return d;
}

const ServerModel::Draw &
ServerModel::draw() const
{
    if (stale_) {
        draw_ = evaluate();
        stale_ = false;
    }
    POLCA_DCHECK(core::bitwiseEqual(draw_.gpuWatts, evaluate().gpuWatts) &&
                     core::bitwiseEqual(draw_.totalWatts,
                                        evaluate().totalWatts),
                 "server '", spec_->name, "': cached draw ",
                 draw_.totalWatts, " W != evaluated ",
                 evaluate().totalWatts, " W (missed invalidation)");
    return draw_;
}

double
ServerModel::gpuPowerWatts() const
{
    return draw().gpuWatts;
}

double
ServerModel::hostPowerWatts() const
{
    return draw().hostWatts;
}

double
ServerModel::powerWatts() const
{
    return draw().totalWatts;
}

void
ServerModel::setGpuActivity(std::size_t i, const GpuActivity &activity)
{
    gpus_.at(i).setActivity(activity);
    stale_ = true;
}

void
ServerModel::setActivityAll(const GpuActivity &activity)
{
    for (auto &gpu : gpus_)
        gpu.setActivity(activity);
    stale_ = true;
}

void
ServerModel::lockClockAll(double mhz)
{
    for (auto &gpu : gpus_)
        gpu.lockClock(mhz);
    stale_ = true;
}

void
ServerModel::unlockClockAll()
{
    for (auto &gpu : gpus_)
        gpu.unlockClock();
    stale_ = true;
}

void
ServerModel::setPowerCapAll(double watts)
{
    // A cap moves no draw by itself: the clock follows it only at the
    // next stepCapControllers(), which invalidates.
    for (auto &gpu : gpus_)
        gpu.setPowerCap(watts);
}

void
ServerModel::clearPowerCapAll()
{
    for (auto &gpu : gpus_)
        gpu.clearPowerCap();
    stale_ = true;
}

void
ServerModel::setPowerBrakeAll(bool engaged)
{
    for (auto &gpu : gpus_)
        gpu.setPowerBrake(engaged);
    stale_ = true;
}

void
ServerModel::stepCapControllers()
{
    for (auto &gpu : gpus_)
        gpu.stepCapController();
    stale_ = true;
}

double
ServerModel::worstSlowdownFactor(double computeBoundFraction) const
{
    double worst = 1.0;
    for (const auto &gpu : gpus_)
        worst = std::max(worst, gpu.slowdownFactor(computeBoundFraction));
    return worst;
}

} // namespace polca::power
