/**
 * @file
 * Queryable registry of the power monitoring/control interfaces and
 * row-level parameters the paper tabulates (Tables 1 and 2), so the
 * latency envelope the simulated row manager (DomainManager) and
 * SMBPBI channels model is auditable in one place.  The in-band
 * DCGM and IPMI rows are listed here only: POLCA never reads them.
 */

#pragma once

#include <string>
#include <vector>

#include "sim/types.hh"

namespace polca::telemetry {

/** One row of Table 1. */
struct MonitoringInterface
{
    std::string mechanism;
    std::string granularity;
    std::string path;           ///< "IB" or "OOB"
    std::string intervalText;   ///< as printed in the paper
    sim::Tick typicalInterval;  ///< value the simulator uses
};

/** Table 1: power monitoring interfaces in an LLM cluster. */
std::vector<MonitoringInterface> monitoringInterfaces();

/** Table 2: row-level parameters. */
struct RowParameters
{
    int numServers = 40;
    std::string serverType = "DGX-A100";

    /** Row power telemetry arrives every 2 s. */
    sim::Tick powerTelemetryDelay = sim::secondsToTicks(2.0);

    /** OOB power brake takes effect within 5 s. */
    sim::Tick powerBrakeLatency = sim::secondsToTicks(5.0);

    /** OOB frequency/power capping takes up to 40 s. */
    sim::Tick oobControlLatency = sim::secondsToTicks(40.0);

    /** The UPS requires capping within 10 s of an emergency. */
    sim::Tick upsCappingDeadline = sim::secondsToTicks(10.0);

    /** In-band (nvidia-smi/DCGM) control latency: few milliseconds. */
    sim::Tick ibControlLatency = sim::msToTicks(5.0);
};

/** The paper's production row configuration. */
RowParameters paperRowParameters();

} // namespace polca::telemetry

