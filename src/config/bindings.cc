#include "config/bindings.hh"

namespace polca::config {

namespace {

using llm::Architecture;
using workload::Priority;

std::vector<std::pair<std::string, Priority>>
priorityNames()
{
    return {{"low", Priority::Low}, {"high", Priority::High}};
}

std::vector<std::pair<std::string, Architecture>>
architectureNames()
{
    return {{"encoder", Architecture::Encoder},
            {"decoder", Architecture::Decoder},
            {"encoder-decoder", Architecture::EncoderDecoder}};
}

std::vector<std::pair<std::string, faults::SensorFaultMode>>
sensorModeNames()
{
    return {{"bias", faults::SensorFaultMode::Bias},
            {"noise", faults::SensorFaultMode::Noise},
            {"stuck-at-last", faults::SensorFaultMode::StuckAtLast}};
}

} // namespace

const StructSchema<power::GpuSpec> &
gpuSpecSchema()
{
    static const StructSchema<power::GpuSpec> schema = [] {
        StructSchema<power::GpuSpec> s("row.server.gpu");
        s.stringField("name", &power::GpuSpec::name)
            .field("tdp_watts", &power::GpuSpec::tdpWatts,
                   Unit::Watts, 50.0, 5000.0)
            .field("idle_watts", &power::GpuSpec::idleWatts,
                   Unit::Watts, 0.0, 1000.0)
            .field("max_sm_clock_mhz", &power::GpuSpec::maxSmClockMhz,
                   Unit::Megahertz, 100.0, 10000.0)
            .field("base_sm_clock_mhz",
                   &power::GpuSpec::baseSmClockMhz, Unit::Megahertz,
                   100.0, 10000.0)
            .field("min_sm_clock_mhz", &power::GpuSpec::minSmClockMhz,
                   Unit::Megahertz, 10.0, 10000.0)
            .field("power_brake_clock_mhz",
                   &power::GpuSpec::powerBrakeClockMhz,
                   Unit::Megahertz, 10.0, 10000.0)
            .field("min_power_cap_watts",
                   &power::GpuSpec::minPowerCapWatts, Unit::Watts,
                   10.0, 5000.0)
            .field("max_power_cap_watts",
                   &power::GpuSpec::maxPowerCapWatts, Unit::Watts,
                   10.0, 5000.0)
            .field("compute_dyn_watts",
                   &power::GpuSpec::computeDynWatts, Unit::Watts, 0.0,
                   5000.0)
            .field("memory_dyn_watts",
                   &power::GpuSpec::memoryDynWatts, Unit::Watts, 0.0,
                   5000.0)
            .field("compute_clock_exponent",
                   &power::GpuSpec::computeClockExponent, Unit::None,
                   0.1, 5.0)
            .field("memory_clock_exponent",
                   &power::GpuSpec::memoryClockExponent, Unit::None,
                   0.0, 5.0)
            .field("memory_gb", &power::GpuSpec::memoryGb, Unit::None,
                   1.0, 10000.0);
        return s;
    }();
    return schema;
}

const StructSchema<power::ServerSpec> &
serverSpecSchema()
{
    static const StructSchema<power::ServerSpec> schema = [] {
        StructSchema<power::ServerSpec> s("row.server");
        s.stringField("name", &power::ServerSpec::name)
            .intField("num_gpus", &power::ServerSpec::numGpus, 1, 64)
            .field("rated_power_watts",
                   &power::ServerSpec::ratedPowerWatts, Unit::Watts,
                   500.0, 100000.0)
            .field("host_idle_watts",
                   &power::ServerSpec::hostIdleWatts, Unit::Watts,
                   0.0, 20000.0)
            .field("host_gpu_tracking_factor",
                   &power::ServerSpec::hostGpuTrackingFactor,
                   Unit::None, 0.0, 2.0)
            .field("provisioned_fans_watts",
                   &power::ServerSpec::provisionedFansWatts,
                   Unit::Watts, 0.0, 20000.0)
            .field("provisioned_cpu_watts",
                   &power::ServerSpec::provisionedCpuWatts,
                   Unit::Watts, 0.0, 20000.0)
            .field("provisioned_memory_watts",
                   &power::ServerSpec::provisionedMemoryWatts,
                   Unit::Watts, 0.0, 20000.0)
            .field("provisioned_other_watts",
                   &power::ServerSpec::provisionedOtherWatts,
                   Unit::Watts, 0.0, 20000.0);
        return s;
    }();
    return schema;
}

const StructSchema<llm::ModelSpec> &
modelSpecSchema()
{
    static const StructSchema<llm::ModelSpec> schema = [] {
        StructSchema<llm::ModelSpec> s("model");
        s.stringField("name", &llm::ModelSpec::name)
            .enumField("architecture", &llm::ModelSpec::architecture,
                       architectureNames())
            .field("params_billions", &llm::ModelSpec::paramsBillions,
                   Unit::None, 0.001, 10000.0)
            .intField("inference_gpus", &llm::ModelSpec::inferenceGpus,
                      1, 64)
            .boolField("trainable", &llm::ModelSpec::trainable)
            .field("prompt_ms_per_ktoken",
                   &llm::ModelSpec::promptMsPerKtoken, Unit::None,
                   0.01, 100000.0)
            .field("token_time_ms", &llm::ModelSpec::tokenTimeMs,
                   Unit::None, 0.01, 100000.0)
            .field("token_batch_factor",
                   &llm::ModelSpec::tokenBatchFactor, Unit::None, 0.0,
                   10.0)
            .field("prompt_compute_base",
                   &llm::ModelSpec::promptComputeBase, Unit::None,
                   0.0, 4.0)
            .field("prompt_compute_max",
                   &llm::ModelSpec::promptComputeMax, Unit::None, 0.0,
                   4.0)
            .field("prompt_mem_activity",
                   &llm::ModelSpec::promptMemActivity, Unit::None,
                   0.0, 4.0)
            .field("token_compute_base",
                   &llm::ModelSpec::tokenComputeBase, Unit::None, 0.0,
                   4.0)
            .field("token_mem_activity",
                   &llm::ModelSpec::tokenMemActivity, Unit::None, 0.0,
                   4.0)
            .field("prompt_compute_bound_fraction",
                   &llm::ModelSpec::promptComputeBoundFraction,
                   Unit::Fraction, 0.0, 1.0)
            .field("token_compute_bound_fraction",
                   &llm::ModelSpec::tokenComputeBoundFraction,
                   Unit::Fraction, 0.0, 1.0);
        return s;
    }();
    return schema;
}

const StructSchema<workload::WorkloadSpec> &
workloadSpecSchema()
{
    static const StructSchema<workload::WorkloadSpec> schema = [] {
        StructSchema<workload::WorkloadSpec> s("workload.mix");
        s.stringField("name", &workload::WorkloadSpec::name)
            .intField("prompt_min", &workload::WorkloadSpec::promptMin,
                      1, 1000000)
            .intField("prompt_max", &workload::WorkloadSpec::promptMax,
                      1, 1000000)
            .intField("output_min", &workload::WorkloadSpec::outputMin,
                      1, 1000000)
            .intField("output_max", &workload::WorkloadSpec::outputMax,
                      1, 1000000)
            .field("traffic_fraction",
                   &workload::WorkloadSpec::trafficFraction,
                   Unit::Fraction, 0.0, 1.0)
            .field("high_priority_fraction",
                   &workload::WorkloadSpec::highPriorityFraction,
                   Unit::Fraction, 0.0, 1.0);
        return s;
    }();
    return schema;
}

const StructSchema<workload::DiurnalModel::Params> &
diurnalSchema()
{
    static const StructSchema<workload::DiurnalModel::Params> schema =
        [] {
            StructSchema<workload::DiurnalModel::Params> s(
                "workload.diurnal");
            using P = workload::DiurnalModel::Params;
            s.field("base_utilization", &P::baseUtilization,
                    Unit::Fraction, 0.0, 1.0)
                .field("daily_amplitude", &P::dailyAmplitude,
                       Unit::Fraction, 0.0, 1.0)
                .field("weekend_dip", &P::weekendDip, Unit::Fraction,
                       0.0, 1.0)
                .field("noise_amplitude", &P::noiseAmplitude,
                       Unit::Fraction, 0.0, 1.0)
                .field("noise_corr_seconds", &P::noiseCorrSeconds,
                       Unit::Seconds, 1.0, 1e6)
                .field("peak_seconds_of_day", &P::peakSecondsOfDay,
                       Unit::Seconds, 0.0, 86400.0)
                .field("min_utilization", &P::minUtilization,
                       Unit::Fraction, 0.0, 1.0)
                .field("max_utilization", &P::maxUtilization,
                       Unit::Fraction, 0.0, 1.0);
            return s;
        }();
    return schema;
}

const StructSchema<cluster::RowConfig> &
rowConfigSchema()
{
    static const StructSchema<cluster::RowConfig> schema = [] {
        StructSchema<cluster::RowConfig> s("row");
        s.stringField("model", &cluster::RowConfig::modelName)
            .intField("base_servers",
                      &cluster::RowConfig::baseServers, 1, 100000)
            .field("added_server_fraction",
                   &cluster::RowConfig::addedServerFraction,
                   Unit::Fraction, 0.0, 5.0)
            .field("provisioned_per_server_watts",
                   &cluster::RowConfig::provisionedPerServerWatts,
                   Unit::Watts, 100.0, 100000.0)
            .intField("buffer_size", &cluster::RowConfig::bufferSize,
                      0, 100000)
            .intField("max_batch_size",
                      &cluster::RowConfig::maxBatchSize, 1, 4096)
            .field("phase_aware_token_clock_mhz",
                   &cluster::RowConfig::phaseAwareTokenClockMhz,
                   Unit::Megahertz, 0.0, 10000.0)
            .field("telemetry_dropout_probability",
                   &cluster::RowConfig::telemetryDropoutProbability,
                   Unit::Fraction, 0.0, 1.0);
        return s;
    }();
    return schema;
}

const StructSchema<cluster::TopologyConfig> &
topologyConfigSchema()
{
    static const StructSchema<cluster::TopologyConfig> schema = [] {
        StructSchema<cluster::TopologyConfig> s("topology");
        using T = cluster::TopologyConfig;
        s.boolField("enabled", &T::enabled)
            // Every domain manager's cadence, the flat row's too.
            .tickField("telemetry_interval", &T::telemetryInterval,
                       0.01, 3600.0)
            .field("row_budget_fraction", &T::rowBudgetFraction,
                   Unit::Fraction, 0.05, 2.0)
            .field("site_budget_fraction", &T::siteBudgetFraction,
                   Unit::Fraction, 0.05, 2.0)
            // 0 disarms the breaker at that level; the row pair
            // also arms the flat row's.
            .field("rack_breaker_limit_fraction",
                   &T::rackBreakerLimitFraction, Unit::Fraction, 0.0,
                   5.0)
            .field("row_breaker_limit_fraction",
                   &T::rowBreakerLimitFraction, Unit::Fraction, 0.0,
                   5.0)
            .field("site_breaker_limit_fraction",
                   &T::siteBreakerLimitFraction, Unit::Fraction, 0.0,
                   5.0)
            .tickField("breaker_trip_duration",
                       &T::breakerTripDuration, 0.1, 86400.0);
        return s;
    }();
    return schema;
}

const StructSchema<cluster::TopologyRowGroup> &
topologyRowGroupSchema()
{
    static const StructSchema<cluster::TopologyRowGroup> schema = [] {
        StructSchema<cluster::TopologyRowGroup> s("topology.rows");
        using G = cluster::TopologyRowGroup;
        s.stringField("name", &G::name)
            .intField("rows", &G::rows, 1, 10000)
            .intField("racks_per_row", &G::racksPerRow, 1, 1000)
            .intField("servers_per_rack", &G::serversPerRack, 1, 1000)
            .stringField("server", &G::server)
            .stringField("model", &G::model)
            .field("lp_server_fraction", &G::lpServerFraction,
                   Unit::Fraction, 0.0, 1.0)
            .field("provisioned_per_server_watts",
                   &G::provisionedPerServerWatts, Unit::Watts, 100.0,
                   100000.0);
        return s;
    }();
    return schema;
}

const StructSchema<core::ThresholdRule> &
thresholdRuleSchema()
{
    static const StructSchema<core::ThresholdRule> schema = [] {
        StructSchema<core::ThresholdRule> s("policy.rules");
        s.stringField("name", &core::ThresholdRule::name)
            .enumField("target", &core::ThresholdRule::target,
                       priorityNames())
            .field("cap_at", &core::ThresholdRule::capFraction,
                   Unit::Fraction, 0.01, 1.5)
            .field("uncap_at", &core::ThresholdRule::uncapFraction,
                   Unit::Fraction, 0.0, 1.5)
            .field("lock_mhz", &core::ThresholdRule::lockMhz,
                   Unit::Megahertz, 10.0, 10000.0);
        return s;
    }();
    return schema;
}

const StructSchema<core::PolicyConfig> &
policyConfigSchema()
{
    static const StructSchema<core::PolicyConfig> schema = [] {
        StructSchema<core::PolicyConfig> s("policy");
        s.stringField("name", &core::PolicyConfig::name)
            .field("power_brake_fraction",
                   &core::PolicyConfig::powerBrakeFraction,
                   Unit::Fraction, 0.1, 2.0)
            .field("power_brake_release_fraction",
                   &core::PolicyConfig::powerBrakeReleaseFraction,
                   Unit::Fraction, 0.05, 2.0)
            .boolField("power_brake_enabled",
                       &core::PolicyConfig::powerBrakeEnabled);
        return s;
    }();
    return schema;
}

const StructSchema<core::ManagerOptions> &
managerOptionsSchema()
{
    static const StructSchema<core::ManagerOptions> schema = [] {
        StructSchema<core::ManagerOptions> s("manager");
        using M = core::ManagerOptions;
        s.tickField("oob_command_latency", &M::oobCommandLatency, 0.0,
                    3600.0)
            .tickField("brake_latency", &M::brakeLatency, 0.0, 3600.0)
            .tickField("min_brake_hold", &M::minBrakeHold, 0.0,
                       86400.0)
            .field("smbpbi_failure_probability",
                   &M::smbpbiFailureProbability, Unit::Fraction, 0.0,
                   1.0)
            .tickField("verify_slack", &M::verifySlack, 0.0, 3600.0)
            .tickField("decision_smoothing_window",
                       &M::decisionSmoothingWindow, 0.0, 86400.0)
            .tickField("min_rule_dwell", &M::minRuleDwell, 0.0,
                       86400.0)
            .boolField("watchdog_enabled", &M::watchdogEnabled)
            .tickField("watchdog_interval", &M::watchdogInterval,
                       0.01, 3600.0)
            .tickField("watchdog_timeout", &M::watchdogTimeout, 0.01,
                       86400.0)
            .tickField("stale_warn_timeout", &M::staleWarnTimeout,
                       0.01, 86400.0)
            .boolField("fail_safe_engage_brake",
                       &M::failSafeEngageBrake)
            .intField("channel_flag_threshold",
                      &M::channelFlagThreshold, 1, 1000000);
        return s;
    }();
    return schema;
}

const StructSchema<core::ExperimentConfig> &
experimentSchema()
{
    static const StructSchema<core::ExperimentConfig> schema = [] {
        StructSchema<core::ExperimentConfig> s("experiment");
        using E = core::ExperimentConfig;
        s.boolField("managed", &E::managed)
            .tickField("duration", &E::duration, 1.0, 365.0 * 86400.0)
            .tickField("warmup", &E::warmup, 0.0, 365.0 * 86400.0)
            .intField("seed", &E::seed, 0,
                      std::numeric_limits<long long>::max())
            .field("power_scale_factor", &E::powerScaleFactor,
                   Unit::Fraction, 0.1, 10.0)
            .boolField("record_row_series", &E::recordRowSeries);
        return s;
    }();
    return schema;
}

const StructSchema<faults::BlackoutWindow> &
blackoutSchema()
{
    static const StructSchema<faults::BlackoutWindow> schema = [] {
        StructSchema<faults::BlackoutWindow> s("faults.blackouts");
        s.tickField("start", &faults::BlackoutWindow::start, 0.0,
                    365.0 * 86400.0)
            .tickField("duration", &faults::BlackoutWindow::duration,
                       0.0, 365.0 * 86400.0);
        return s;
    }();
    return schema;
}

const StructSchema<faults::BurstyLoss> &
burstyLossSchema()
{
    static const StructSchema<faults::BurstyLoss> schema = [] {
        StructSchema<faults::BurstyLoss> s("faults.bursty_loss");
        using B = faults::BurstyLoss;
        s.boolField("enabled", &B::enabled)
            .field("enter_burst_probability",
                   &B::enterBurstProbability, Unit::Fraction, 0.0,
                   1.0)
            .field("exit_burst_probability", &B::exitBurstProbability,
                   Unit::Fraction, 0.0, 1.0)
            .field("good_loss_probability", &B::goodLossProbability,
                   Unit::Fraction, 0.0, 1.0)
            .field("burst_loss_probability", &B::burstLossProbability,
                   Unit::Fraction, 0.0, 1.0);
        return s;
    }();
    return schema;
}

const StructSchema<faults::SensorFault> &
sensorFaultSchema()
{
    static const StructSchema<faults::SensorFault> schema = [] {
        StructSchema<faults::SensorFault> s("faults.sensor_faults");
        using F = faults::SensorFault;
        s.tickField("start", &F::start, 0.0, 365.0 * 86400.0)
            .tickField("duration", &F::duration, 0.0,
                       365.0 * 86400.0)
            .enumField("mode", &F::mode, sensorModeNames())
            .field("bias_watts", &F::biasWatts, Unit::Watts, -1e6,
                   1e6)
            .field("noise_stddev_watts", &F::noiseStddevWatts,
                   Unit::Watts, 0.0, 1e6);
        return s;
    }();
    return schema;
}

const StructSchema<faults::OobOutage> &
oobOutageSchema()
{
    static const StructSchema<faults::OobOutage> schema = [] {
        StructSchema<faults::OobOutage> s("faults.oob_outages");
        s.tickField("start", &faults::OobOutage::start, 0.0,
                    365.0 * 86400.0)
            .tickField("duration", &faults::OobOutage::duration, 0.0,
                       365.0 * 86400.0);
        return s;
    }();
    return schema;
}

const StructSchema<faults::ServerCrash> &
serverCrashSchema()
{
    static const StructSchema<faults::ServerCrash> schema = [] {
        StructSchema<faults::ServerCrash> s("faults.crashes");
        s.tickField("at", &faults::ServerCrash::at, 0.0,
                    365.0 * 86400.0)
            .tickField("downtime", &faults::ServerCrash::downtime,
                       0.0, 365.0 * 86400.0)
            .intField("server_index",
                      &faults::ServerCrash::serverIndex, 0, 1000000)
            .boolField("permanent", &faults::ServerCrash::permanent);
        return s;
    }();
    return schema;
}

const StructSchema<faults::ControllerCrash> &
controllerCrashSchema()
{
    static const StructSchema<faults::ControllerCrash> schema = [] {
        StructSchema<faults::ControllerCrash> s(
            "faults.controller_crashes");
        using C = faults::ControllerCrash;
        s.tickField("at", &C::at, 0.0, 365.0 * 86400.0)
            .tickField("downtime", &C::downtime, 0.0, 365.0 * 86400.0)
            .boolField("cold_restart", &C::coldRestart);
        return s;
    }();
    return schema;
}

const StructSchema<faults::ChaosConfig> &
chaosConfigSchema()
{
    static const StructSchema<faults::ChaosConfig> schema = [] {
        StructSchema<faults::ChaosConfig> s("chaos");
        using C = faults::ChaosConfig;
        s.boolField("enabled", &C::enabled)
            .field("intensity", &C::intensity, Unit::Fraction, 0.0,
                   10.0)
            .intField("blackout_count_max", &C::blackoutCountMax, 0,
                      1000)
            .tickField("blackout_duration_min",
                       &C::blackoutDurationMin, 1.0, 365.0 * 86400.0)
            .tickField("blackout_duration_max",
                       &C::blackoutDurationMax, 1.0, 365.0 * 86400.0)
            .field("bursty_probability", &C::burstyProbability,
                   Unit::Fraction, 0.0, 1.0)
            .intField("sensor_fault_count_max",
                      &C::sensorFaultCountMax, 0, 1000)
            .tickField("sensor_fault_duration_min",
                       &C::sensorFaultDurationMin, 1.0,
                       365.0 * 86400.0)
            .tickField("sensor_fault_duration_max",
                       &C::sensorFaultDurationMax, 1.0,
                       365.0 * 86400.0)
            .field("sensor_bias_weight", &C::sensorBiasWeight,
                   Unit::Fraction, 0.0, 1000.0)
            .field("sensor_noise_weight", &C::sensorNoiseWeight,
                   Unit::Fraction, 0.0, 1000.0)
            .field("sensor_stuck_weight", &C::sensorStuckWeight,
                   Unit::Fraction, 0.0, 1000.0)
            .field("sensor_bias_max_watts", &C::sensorBiasMaxWatts,
                   Unit::Watts, 0.0, 1e7)
            .field("sensor_noise_max_stddev_watts",
                   &C::sensorNoiseMaxStddevWatts, Unit::Watts, 0.0,
                   1e7)
            .intField("oob_outage_count_max", &C::oobOutageCountMax,
                      0, 1000)
            .tickField("oob_outage_duration_min",
                       &C::oobOutageDurationMin, 1.0,
                       365.0 * 86400.0)
            .tickField("oob_outage_duration_max",
                       &C::oobOutageDurationMax, 1.0,
                       365.0 * 86400.0)
            .field("oob_blackout_correlation",
                   &C::oobBlackoutCorrelation, Unit::Fraction, 0.0,
                   1.0)
            .intField("crash_count_max", &C::crashCountMax, 0, 1000)
            .tickField("crash_downtime_min", &C::crashDowntimeMin,
                       1.0, 365.0 * 86400.0)
            .tickField("crash_downtime_max", &C::crashDowntimeMax,
                       1.0, 365.0 * 86400.0)
            .intField("controller_crash_count_max",
                      &C::controllerCrashCountMax, 0, 1000)
            .tickField("controller_downtime_min",
                       &C::controllerDowntimeMin, 1.0,
                       365.0 * 86400.0)
            .tickField("controller_downtime_max",
                       &C::controllerDowntimeMax, 1.0,
                       365.0 * 86400.0)
            .field("controller_cold_restart_probability",
                   &C::controllerColdRestartProbability,
                   Unit::Fraction, 0.0, 1.0);
        return s;
    }();
    return schema;
}

const StructSchema<core::SafetyOptions> &
safetyOptionsSchema()
{
    static const StructSchema<core::SafetyOptions> schema = [] {
        StructSchema<core::SafetyOptions> s("safety");
        using O = core::SafetyOptions;
        s.boolField("monitor", &O::monitor)
            .tickField("check_interval", &O::checkInterval, 0.01,
                       3600.0)
            .tickField("fail_safe_margin", &O::failSafeMargin, 0.0,
                       86400.0)
            .tickField("cap_release_deadline", &O::capReleaseDeadline,
                       1.0, 7.0 * 86400.0)
            .field("max_brake_time_fraction",
                   &O::maxBrakeTimeFraction, Unit::Fraction, 0.0,
                   1.0);
        return s;
    }();
    return schema;
}

const StructSchema<core::ObsOptions> &
obsOptionsSchema()
{
    static const StructSchema<core::ObsOptions> schema = [] {
        StructSchema<core::ObsOptions> s("obs");
        // 0 = interval stats disabled.
        s.tickField("interval", &core::ObsOptions::metricsInterval,
                    0.0, 365.0 * 86400.0);
        return s;
    }();
    return schema;
}

} // namespace polca::config
