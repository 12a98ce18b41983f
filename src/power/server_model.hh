/**
 * @file
 * GPU server (DGX-class) power model: eight GPU power models plus a
 * host-side component (CPUs, fans, memory, storage) so that GPU power
 * lands at ~60 % of server draw under load (Insight 8) and the
 * provisioned-power breakdown of Figure 3 is reproducible.
 */

#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "power/gpu_power_model.hh"
#include "power/gpu_spec.hh"

namespace polca::power {

/**
 * Static server parameters.  Defaults model the paper's DGX A100:
 * 6500 W rated, ~50 % of provisioned power for GPUs, ~25 % for fans,
 * and an observed all-workload peak of ~5700 W (Section 5, derating).
 */
struct ServerSpec
{
    std::string name;
    GpuSpec gpu;
    std::size_t numGpus;

    /** Rated (provisioned) power, watts. */
    double ratedPowerWatts;

    /** Host power at idle (CPUs, fans at floor, memory, storage). */
    double hostIdleWatts;

    /**
     * Host power above idle per watt of GPU power above GPU idle:
     * fans, VR losses, and CPU feed all track how hard the GPUs are
     * drawing.  This coupling is what lets GPU frequency capping
     * reclaim host power too.
     */
    double hostGpuTrackingFactor;

    /** Provisioned power per fan/CPU/memory/other bucket (Fig 3). */
    double provisionedFansWatts;
    double provisionedCpuWatts;
    double provisionedMemoryWatts;
    double provisionedOtherWatts;

    /** The paper's DGX A100 with 8x A100-80GB (inference machine). */
    static ServerSpec dgxA100_80gb();

    /** The paper's DGX A100 with 8x A100-40GB (training machine). */
    static ServerSpec dgxA100_40gb();

    /** DGX H100 (10.2 kW, Section 6.7). */
    static ServerSpec dgxH100();

    /** The three presets above, in usage-text order. */
    static const std::vector<ServerSpec> &presets();

    /** Look up a preset by name; fatal() on unknown names. */
    static ServerSpec byName(const std::string &name);

    /** Provisioned GPU power = numGpus * gpu TDP. */
    double provisionedGpuWatts() const;

    /**
     * Figure 3 breakdown: (component, provisioned watts) pairs.
     * Sums to ratedPowerWatts.
     */
    std::vector<std::pair<std::string, double>>
    provisionedBreakdown() const;
};

/**
 * A live server: owns its GPUs and derives total electrical draw.
 *
 * The server holds one immutable ServerSpec, built at construction;
 * its GPUs point at that spec's GpuSpec, and a copy of the server
 * shares both.
 *
 * The draw is computed once per change, not once per read: every
 * mutator marks the cached GPU, host and total draw stale, and the
 * first read after it re-evaluates all GPUs.  GPUs are therefore
 * reachable only read-only; every change goes through a mutator here,
 * so nothing can alter a GPU behind the cache.
 */
class ServerModel
{
  public:
    explicit ServerModel(ServerSpec spec);

    const ServerSpec &spec() const { return *spec_; }

    std::size_t numGpus() const { return gpus_.size(); }
    const GpuPowerModel &gpu(std::size_t i) const { return gpus_.at(i); }

    /** Sum of instantaneous GPU power, watts. */
    double gpuPowerWatts() const;

    /** Host-side power: idle + tracking factor x GPU dynamic
     *  power. */
    double hostPowerWatts() const;

    /** Total server draw, watts. */
    double powerWatts() const;

    /** Set the activity of GPU @p i (the others keep theirs). */
    void setGpuActivity(std::size_t i, const GpuActivity &activity);

    /** @name Fleet-wide control conveniences */
    /** @{ */
    void setActivityAll(const GpuActivity &activity);
    void lockClockAll(double mhz);
    void unlockClockAll();
    void setPowerCapAll(double watts);
    void clearPowerCapAll();
    void setPowerBrakeAll(bool engaged);
    void stepCapControllers();
    /** @} */

    /**
     * Slowdown factor of the *slowest* GPU for a phase with the given
     * compute-bound fraction; tensor-parallel inference advances at
     * the pace of its slowest shard.
     */
    double worstSlowdownFactor(double computeBoundFraction) const;

  private:
    /** GPU, host and total draw, evaluated from the GPUs. */
    struct Draw
    {
        double gpuWatts = 0.0;
        double hostWatts = 0.0;
        double totalWatts = 0.0;
    };

    /** Full evaluation over every GPU (no cache involved). */
    Draw evaluate() const;

    /** The cached draw, re-evaluated first when stale. */
    const Draw &draw() const;

    std::shared_ptr<const ServerSpec> spec_;  ///< never null
    std::vector<GpuPowerModel> gpus_;
    // polca-snapshot: skip(draw_, derived; copied with the GPUs it was computed from)
    mutable Draw draw_;
    // polca-snapshot: skip(stale_, derived; copied with the GPUs it was computed from)
    mutable bool stale_ = true;
};

} // namespace polca::power
