#include "llm/phase_model.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/contracts.hh"
#include "sim/logging.hh"

namespace polca::llm {

const char *
toString(Phase phase)
{
    return phase == Phase::Prompt ? "prompt" : "token";
}

PhaseModel::PhaseModel(ModelSpec model)
    : PhaseModel(std::make_shared<const ModelSpec>(std::move(model)))
{
}

PhaseModel::PhaseModel(std::shared_ptr<const ModelSpec> model)
    : model_(std::move(model))
{
    POLCA_CHECK(model_ != nullptr, "PhaseModel: null model spec");
}

int
PhaseModel::numGpus(const InferenceConfig &config) const
{
    return model_->gpusForDatatype(config.datatype);
}

double
PhaseModel::logGrowth(double base, double max, double tokens,
                      double refTokens, double slope)
{
    if (tokens <= refTokens)
        return base;
    double doublings = std::log2(tokens / refTokens);
    return std::min(max, base + slope * doublings);
}

sim::Tick
PhaseModel::promptDuration(const InferenceConfig &config) const
{
    if (config.inputTokens <= 0 || config.batchSize <= 0)
        sim::fatal("PhaseModel: non-positive input/batch size");

    double tokens = static_cast<double>(config.inputTokens) *
        config.batchSize;
    double ms = model_->promptMsPerKtoken * tokens / 1000.0;
    ms *= ModelSpec::datatypeLatencyFactor(config.datatype);
    // The per-ktoken constant assumes Table 3's GPU count; rescale if
    // the datatype changes the tensor-parallel width.
    ms *= static_cast<double>(model_->inferenceGpus) / numGpus(config);
    return sim::msToTicks(ms);
}

sim::Tick
PhaseModel::tokenPhaseDuration(const InferenceConfig &config) const
{
    if (config.outputTokens < 0)
        sim::fatal("PhaseModel: negative output size");
    if (config.outputTokens == 0)
        return 0;

    double perToken = model_->tokenTimeMs *
        (1.0 + model_->tokenBatchFactor *
         std::log2(static_cast<double>(config.batchSize)));
    perToken *= ModelSpec::datatypeLatencyFactor(config.datatype);
    perToken *= static_cast<double>(model_->inferenceGpus) /
        numGpus(config);
    return sim::msToTicks(perToken * config.outputTokens);
}

sim::Tick
PhaseModel::totalLatency(const InferenceConfig &config) const
{
    return promptDuration(config) + tokenPhaseDuration(config);
}

sim::Tick
PhaseModel::latencyAtClock(const InferenceConfig &config,
                           const power::GpuPowerModel &gpu) const
{
    double prompt = static_cast<double>(promptDuration(config)) *
        gpu.slowdownFactor(model_->promptComputeBoundFraction);
    double token = static_cast<double>(tokenPhaseDuration(config)) *
        gpu.slowdownFactor(model_->tokenComputeBoundFraction);
    return static_cast<sim::Tick>(prompt + token);
}

power::GpuActivity
PhaseModel::promptActivity(const InferenceConfig &config) const
{
    double tokens = static_cast<double>(config.inputTokens) *
        config.batchSize;
    double compute = logGrowth(model_->promptComputeBase,
                               model_->promptComputeMax, tokens,
                               256.0, 0.08);
    compute *= ModelSpec::datatypePowerFactor(config.datatype);
    return {compute, model_->promptMemActivity};
}

power::GpuActivity
PhaseModel::tokenActivity(const InferenceConfig &config) const
{
    double batch = static_cast<double>(config.batchSize);
    double compute = model_->tokenComputeBase *
        (1.0 + 0.10 * std::log2(std::max(batch, 1.0)));
    compute *= ModelSpec::datatypePowerFactor(config.datatype);
    double memory = std::min(
        1.0, model_->tokenMemActivity *
        (1.0 + 0.02 * std::log2(std::max(batch, 1.0))));
    return {compute, memory};
}

power::GpuActivity
PhaseModel::activity(Phase phase, const InferenceConfig &config) const
{
    return phase == Phase::Prompt ? promptActivity(config)
                                  : tokenActivity(config);
}

double
PhaseModel::computeBoundFraction(Phase phase) const
{
    return phase == Phase::Prompt ? model_->promptComputeBoundFraction
                                  : model_->tokenComputeBoundFraction;
}

} // namespace polca::llm
