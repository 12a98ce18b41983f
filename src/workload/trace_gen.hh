/**
 * @file
 * Trace generation (Section 6.4).
 *
 * The paper replays a six-week production power trace by generating a
 * synthetic request-level trace whose simulated power matches the
 * production series within 3 % MAPE.  We reproduce the methodology:
 * generate() plays the role of the (hidden) production workload —
 * a diurnal, noisy arrival process over the Table 6 mix — and
 * regenerate() rebuilds a synthetic trace from only the binned
 * arrival-rate of a reference trace, redrawing request sizes from the
 * workload mix.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "llm/phase_model.hh"
#include "workload/diurnal.hh"
#include "workload/trace.hh"
#include "workload/workload_spec.hh"

namespace polca::workload {

/** Options of TraceGenerator::generate(). */
struct TraceGenOptions
{
    /** Trace horizon (paper: six weeks). */
    sim::Tick duration = sim::secondsToTicks(7 * 24 * 3600.0);

    /** Servers whose traffic the trace represents; arrival rate
     *  scales linearly (more servers serve more requests). */
    int numServers = 40;

    /** Mean seconds one request occupies a server (sets the offered
     *  load: rate = utilization * servers / serviceSeconds). */
    double serviceSecondsPerRequest = 50.0;

    /** Diurnal utilization model parameters. */
    DiurnalModel::Params diurnal;

    std::uint64_t seed = 42;
};

/**
 * Generates request traces over a workload mix.
 */
class TraceGenerator
{
  public:
    explicit TraceGenerator(
        std::vector<WorkloadSpec> mix = paperWorkloadMix());

    const std::vector<WorkloadSpec> &mix() const { return mix_; }

    /** Draw workload class, priority, and sizes for one arrival. */
    Request sampleRequest(sim::Rng &rng, sim::Tick arrival,
                          std::uint64_t id) const;

    /**
     * Generate a "production" trace: non-homogeneous Poisson arrivals
     * whose rate follows the diurnal model.
     */
    Trace generate(const TraceGenOptions &options) const;

    /**
     * The paper's synthetic regeneration: keep only the binned
     * arrival counts of @p reference and redraw everything else from
     * the mix.  MAPE of the resulting power series vs. the reference
     * should be within ~3 % (validated in bench_trace_fidelity).
     */
    Trace regenerate(const Trace &reference, sim::Tick binWidth,
                     std::uint64_t seed) const;

    /**
     * Mean service seconds per request for @p model over this mix
     * (used to set offered load so servers run at the intended
     * utilization).
     */
    double expectedServiceSeconds(const llm::PhaseModel &model) const;

    /**
     * Fraction of total *work* (traffic-weighted service time) that
     * is low priority.  Pool sizing must follow work share, not
     * request share: Search requests run ~2x longer than Summarize
     * ones, so a 50:50 request split is not a 50:50 load split.
     */
    double lowPriorityWorkShare(const llm::PhaseModel &model) const;

  private:
    std::vector<WorkloadSpec> mix_;
    /** The mix's traffic fractions, in mix order: the draw weights of
     *  sampleRequest(). */
    std::vector<double> weights_;
};

} // namespace polca::workload

