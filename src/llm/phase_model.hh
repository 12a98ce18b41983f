/**
 * @file
 * Inference phase model: maps a request configuration (input size,
 * batch size, output size, datatype) to prompt/token phase durations
 * and GPU activity factors (Section 4.2 of the paper).
 */

#pragma once

#include <memory>

#include "llm/model_spec.hh"
#include "power/gpu_power_model.hh"
#include "sim/types.hh"

namespace polca::llm {

/** Configuration knobs of Section 2. */
struct InferenceConfig
{
    int inputTokens = 2048;     ///< prompt length
    int batchSize = 1;          ///< requests processed together
    int outputTokens = 256;     ///< tokens generated per request
    Datatype datatype = Datatype::FP16;
};

/** The two phases of a generative inference (Fig 1). */
enum class Phase
{
    Prompt,
    Token,
};

const char *toString(Phase phase);

/**
 * Pure-function model of one LLM's inference behaviour.  All durations
 * are at the maximum SM clock; callers apply the slowdown factor of
 * the GPU they run on (GpuPowerModel::slowdownFactor with this model's
 * per-phase compute-bound fraction).
 */
class PhaseModel
{
  public:
    /** Copies the spec: a PhaseModel may safely outlive the catalog
     *  it was built from (standalone use). */
    explicit PhaseModel(ModelSpec model);

    /** Shares @p model with the other servers of its row group. */
    explicit PhaseModel(std::shared_ptr<const ModelSpec> model);

    const ModelSpec &model() const { return *model_; }

    /** Tensor-parallel GPUs the config needs (datatype dependent). */
    int numGpus(const InferenceConfig &config) const;

    /** Prompt-phase duration at max clock. */
    sim::Tick promptDuration(const InferenceConfig &config) const;

    /** Token-phase duration at max clock (all output tokens). */
    sim::Tick tokenPhaseDuration(const InferenceConfig &config) const;

    /** End-to-end latency at max clock. */
    sim::Tick totalLatency(const InferenceConfig &config) const;

    /**
     * End-to-end latency when both phases run at the given effective
     * clock (uses the per-phase compute-bound fractions).
     */
    sim::Tick latencyAtClock(const InferenceConfig &config,
                             const power::GpuPowerModel &gpu) const;

    /** GPU activity during the prompt phase.  Grows with
     *  log2(input*batch) and saturates (Fig 8a). */
    power::GpuActivity
    promptActivity(const InferenceConfig &config) const;

    /** GPU activity during the token phase (low compute, high
     *  memory; rises mildly with batch size, Fig 8c). */
    power::GpuActivity
    tokenActivity(const InferenceConfig &config) const;

    /** Activity for @p phase. */
    power::GpuActivity activity(Phase phase,
                                const InferenceConfig &config) const;

    /** Compute-bound fraction for @p phase (Insight 7). */
    double computeBoundFraction(Phase phase) const;

  private:
    /** Saturating log growth used by the activity models. */
    static double logGrowth(double base, double max, double tokens,
                            double refTokens, double slope);

    // polca-snapshot: skip(model_, immutable configuration shared by the group)
    std::shared_ptr<const ModelSpec> model_;  ///< never null
};

} // namespace polca::llm

