#include "llm/counters.hh"

#include <algorithm>
#include <utility>

#include "power/gpu_spec.hh"

namespace polca::llm {

std::vector<std::string>
counterNames()
{
    return {"Power", "GPU Util", "Memory Util", "SM Activity",
            "Tensor Activity", "PCIe TX", "PCIe RX"};
}

std::vector<double>
counterValues(const CounterSample &sample)
{
    return {sample.powerWatts, sample.gpuUtilization,
            sample.memoryUtilization, sample.smActivity,
            sample.tensorActivity, sample.pcieTxRate, sample.pcieRxRate};
}

CounterSynthesizer::CounterSynthesizer(const ModelSpec &model,
                                       sim::Rng rng)
    : phases_(model), rng_(std::move(rng))
{
}

CounterSample
CounterSynthesizer::sample(Phase phase, const InferenceConfig &config)
{
    const power::GpuSpec spec = power::GpuSpec::a100_80gb();
    CounterSample out;

    if (phase == Phase::Prompt) {
        // A single latent "layer intensity" drives compute counters
        // up and the memory counter down; power follows the same
        // latent, yielding strong +/- correlations (Fig 7, left).
        double latent = rng_.normal(0.0, 1.0);
        out.smActivity = std::clamp(
            0.88 + 0.05 * latent + rng_.normal(0.0, 0.03), 0.0, 1.0);
        out.tensorActivity = std::clamp(
            0.82 + 0.07 * latent + rng_.normal(0.0, 0.035), 0.0, 1.0);
        out.memoryUtilization = std::clamp(
            0.42 - 0.14 * latent + rng_.normal(0.0, 0.045), 0.0, 1.0);
        out.gpuUtilization =
            std::clamp(0.97 + rng_.normal(0.0, 0.01), 0.0, 1.0);

        power::GpuActivity activity = phases_.promptActivity(config);
        double base = spec.idleWatts +
            activity.compute * spec.computeDynWatts +
            activity.memory * spec.memoryDynWatts;
        out.powerWatts = base + 20.0 * latent + rng_.normal(0.0, 8.0);

        out.pcieTxRate =
            std::clamp(0.06 + rng_.normal(0.0, 0.02), 0.0, 1.0);
        out.pcieRxRate =
            std::clamp(0.08 + rng_.normal(0.0, 0.02), 0.0, 1.0);
    } else {
        // Token phase: low, independently-fluctuating counters
        // (Fig 7, right): no shared latent.
        out.smActivity =
            std::clamp(0.45 + rng_.normal(0.0, 0.08), 0.0, 1.0);
        out.tensorActivity =
            std::clamp(0.28 + rng_.normal(0.0, 0.08), 0.0, 1.0);
        out.memoryUtilization =
            std::clamp(0.85 + rng_.normal(0.0, 0.05), 0.0, 1.0);
        out.gpuUtilization =
            std::clamp(0.93 + rng_.normal(0.0, 0.03), 0.0, 1.0);

        power::GpuActivity activity = phases_.tokenActivity(config);
        double base = spec.idleWatts +
            activity.compute * spec.computeDynWatts +
            activity.memory * spec.memoryDynWatts;
        out.powerWatts = base + rng_.normal(0.0, 8.0);

        out.pcieTxRate =
            std::clamp(0.12 + rng_.normal(0.0, 0.04), 0.0, 1.0);
        out.pcieRxRate =
            std::clamp(0.10 + rng_.normal(0.0, 0.04), 0.0, 1.0);
    }
    return out;
}

} // namespace polca::llm
