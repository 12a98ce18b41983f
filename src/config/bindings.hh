/**
 * @file
 * Schema bindings for every configuration struct the simulator owns.
 *
 * One StructSchema per struct, each declaring the scenario-reachable
 * fields with units, defaults (the default-constructed struct), and
 * validation ranges.  The scenario layer (config/scenario.hh) stitches
 * these together into the full [experiment]/[row]/[policy]/... tree;
 * tests use them directly for defaults -> dump -> reparse round
 * trips.
 */

#pragma once

#include "cluster/topology.hh"
#include "config/schema.hh"
#include "core/oversub_experiment.hh"
#include "core/policy.hh"
#include "core/power_manager.hh"
#include "core/safety_monitor.hh"
#include "faults/chaos.hh"
#include "faults/fault_plan.hh"
#include "llm/model_spec.hh"
#include "power/gpu_spec.hh"
#include "power/server_model.hh"
#include "workload/diurnal.hh"
#include "workload/workload_spec.hh"

namespace polca::config {

const StructSchema<power::GpuSpec> &gpuSpecSchema();
const StructSchema<power::ServerSpec> &serverSpecSchema();
const StructSchema<llm::ModelSpec> &modelSpecSchema();
const StructSchema<workload::WorkloadSpec> &workloadSpecSchema();
const StructSchema<workload::DiurnalModel::Params> &diurnalSchema();
const StructSchema<cluster::RowConfig> &rowConfigSchema();
const StructSchema<cluster::TopologyConfig> &topologyConfigSchema();
const StructSchema<cluster::TopologyRowGroup> &topologyRowGroupSchema();
const StructSchema<core::ThresholdRule> &thresholdRuleSchema();
const StructSchema<core::PolicyConfig> &policyConfigSchema();
const StructSchema<core::ManagerOptions> &managerOptionsSchema();
const StructSchema<core::ExperimentConfig> &experimentSchema();

const StructSchema<faults::BlackoutWindow> &blackoutSchema();
const StructSchema<faults::BurstyLoss> &burstyLossSchema();
const StructSchema<faults::SensorFault> &sensorFaultSchema();
const StructSchema<faults::OobOutage> &oobOutageSchema();
const StructSchema<faults::ServerCrash> &serverCrashSchema();
const StructSchema<faults::ControllerCrash> &controllerCrashSchema();
const StructSchema<faults::ChaosConfig> &chaosConfigSchema();
const StructSchema<core::SafetyOptions> &safetyOptionsSchema();
const StructSchema<core::ObsOptions> &obsOptionsSchema();

} // namespace polca::config

