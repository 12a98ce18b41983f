/** @file Unit tests for the Table 1 / Table 2 interface registry. */

#include <gtest/gtest.h>

#include "telemetry/interface_registry.hh"

using namespace polca::telemetry;
using namespace polca::sim;

TEST(InterfaceRegistry, Table1Contents)
{
    auto interfaces = monitoringInterfaces();
    ASSERT_EQ(interfaces.size(), 5u);
    EXPECT_EQ(interfaces[1].mechanism, "DCGM");
    EXPECT_EQ(interfaces[1].path, "IB");
    EXPECT_EQ(interfaces[1].typicalInterval, msToTicks(100));
    EXPECT_EQ(interfaces[2].mechanism, "SMBPBI");
    EXPECT_EQ(interfaces[2].path, "OOB");
    EXPECT_EQ(interfaces[4].mechanism, "Row manager");
    EXPECT_EQ(interfaces[4].typicalInterval, secondsToTicks(2));
}

TEST(InterfaceRegistry, Table2Parameters)
{
    RowParameters params = paperRowParameters();
    EXPECT_EQ(params.numServers, 40);
    EXPECT_EQ(params.powerTelemetryDelay, secondsToTicks(2));
    EXPECT_EQ(params.powerBrakeLatency, secondsToTicks(5));
    EXPECT_EQ(params.oobControlLatency, secondsToTicks(40));
    EXPECT_EQ(params.upsCappingDeadline, secondsToTicks(10));
    // The OOB cap path misses the UPS deadline — the design tension
    // POLCA resolves (Section 6.2).
    EXPECT_GT(params.oobControlLatency, params.upsCappingDeadline);
    EXPECT_LT(params.powerBrakeLatency, params.upsCappingDeadline);
}
