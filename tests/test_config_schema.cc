/**
 * @file
 * StructSchema tests: unit-suffix token parsing, and — for every
 * bound config struct — the defaults -> dump -> reparse -> equal
 * round trip that underwrites the effective-config dump guarantee.
 * Plus hostile inputs: wrong units, out-of-range values, unknown
 * keys with suggestions, all anchored to exact file:line locations.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "config/bindings.hh"
#include "workload/workload_spec.hh"

namespace {

using namespace polca;
using namespace polca::config;

double
number(const std::string &raw, Unit unit)
{
    double out = 0.0;
    std::string err;
    EXPECT_TRUE(parseNumberToken(raw, unit, out, err))
        << raw << ": " << err;
    return out;
}

std::string
numberError(const std::string &raw, Unit unit)
{
    double out = 0.0;
    std::string err;
    EXPECT_FALSE(parseNumberToken(raw, unit, out, err)) << raw;
    return err;
}

TEST(SchemaTokens, UnitSuffixes)
{
    EXPECT_DOUBLE_EQ(number("30%", Unit::Fraction), 0.30);
    EXPECT_DOUBLE_EQ(number("0.3", Unit::Fraction), 0.3);
    EXPECT_DOUBLE_EQ(number("500ms", Unit::Seconds), 0.5);
    EXPECT_DOUBLE_EQ(number("2s", Unit::Seconds), 2.0);
    EXPECT_DOUBLE_EQ(number("3min", Unit::Seconds), 180.0);
    EXPECT_DOUBLE_EQ(number("1.5h", Unit::Seconds), 5400.0);
    EXPECT_DOUBLE_EQ(number("2d", Unit::Seconds), 172800.0);
    EXPECT_DOUBLE_EQ(number("6.5kW", Unit::Watts), 6500.0);
    EXPECT_DOUBLE_EQ(number("400W", Unit::Watts), 400.0);
    EXPECT_DOUBLE_EQ(number("2MW", Unit::Watts), 2e6);
    EXPECT_DOUBLE_EQ(number("1275MHz", Unit::Megahertz), 1275.0);
    EXPECT_DOUBLE_EQ(number("1.41GHz", Unit::Megahertz), 1410.0);
    // Bare numbers read in the canonical unit.
    EXPECT_DOUBLE_EQ(number("86400", Unit::Seconds), 86400.0);
    EXPECT_DOUBLE_EQ(number("1e6", Unit::Watts), 1e6);
}

TEST(SchemaTokens, UnitMismatchesAndGarbage)
{
    EXPECT_NE(numberError("10W", Unit::Fraction).find("does not fit"),
              std::string::npos);
    EXPECT_NE(numberError("2s", Unit::Watts).find("does not fit"),
              std::string::npos);
    EXPECT_NE(numberError("10zorps", Unit::Watts)
                  .find("unknown unit suffix"),
              std::string::npos);
    EXPECT_NE(numberError("1.2.3", Unit::None).find("malformed"),
              std::string::npos);
    EXPECT_NE(numberError("", Unit::None).find("empty"),
              std::string::npos);
}

TEST(SchemaTokens, IntBoolString)
{
    long long i = 0;
    std::string err;
    EXPECT_TRUE(parseIntToken("42", i, err));
    EXPECT_EQ(i, 42);
    EXPECT_FALSE(parseIntToken("12.5", i, err));
    EXPECT_FALSE(parseIntToken("42x", i, err));

    bool b = false;
    EXPECT_TRUE(parseBoolToken("true", b, err));
    EXPECT_TRUE(b);
    EXPECT_TRUE(parseBoolToken("0", b, err));
    EXPECT_FALSE(b);
    EXPECT_FALSE(parseBoolToken("yes", b, err));

    std::string s;
    EXPECT_TRUE(parseStringToken("\"a\\nb\"", s, err));
    EXPECT_EQ(s, "a\nb");
    EXPECT_TRUE(parseStringToken("bare", s, err));
    EXPECT_EQ(s, "bare");
}

TEST(SchemaTokens, QuoteRoundTrip)
{
    std::string original = "line1\nline2\t\"quoted\" back\\slash";
    std::string err, decoded;
    ASSERT_TRUE(parseStringToken(quoteString(original), decoded, err))
        << err;
    EXPECT_EQ(decoded, original);
}

/**
 * dump() every bound field of @p value, reparse the dump as a
 * section, apply() it onto a second instance, and require that it
 * dumps the same text — the per-struct half of the dump/reparse
 * identity guarantee.
 */
template <typename T>
void
expectRoundTrip(const StructSchema<T> &schema, const T &value)
{
    std::ostringstream os;
    schema.dump(value, nullptr, os);

    Diagnostics diag;
    ConfigNode root =
        parseConfigString(os.str(), "dump.toml", diag);
    ASSERT_TRUE(diag.ok()) << schema.name() << ": " << diag.str();

    T reparsed{};
    ASSERT_TRUE(schema.apply(root, reparsed, diag))
        << schema.name() << ": " << diag.str();
    std::ostringstream again;
    schema.dump(reparsed, nullptr, again);
    EXPECT_EQ(again.str(), os.str())
        << schema.name() << " did not survive a dump/reparse cycle";
}

TEST(SchemaRoundTrip, EveryBoundStruct)
{
    expectRoundTrip(gpuSpecSchema(), power::GpuSpec::a100_80gb());
    expectRoundTrip(gpuSpecSchema(), power::GpuSpec::h100_80gb());
    expectRoundTrip(serverSpecSchema(),
                    power::ServerSpec::dgxA100_80gb());
    expectRoundTrip(serverSpecSchema(), power::ServerSpec::dgxH100());
    expectRoundTrip(modelSpecSchema(),
                    llm::ModelCatalog().byName("BLOOM-176B"));
    expectRoundTrip(workloadSpecSchema(),
                    workload::paperWorkloadMix().front());
    expectRoundTrip(diurnalSchema(),
                    workload::DiurnalModel::Params{});
    expectRoundTrip(rowConfigSchema(), cluster::RowConfig{});
    expectRoundTrip(thresholdRuleSchema(),
                    core::PolicyConfig::polca().rules.front());
    expectRoundTrip(policyConfigSchema(), core::PolicyConfig::polca());
    expectRoundTrip(policyConfigSchema(), core::PolicyConfig::noCap());
    expectRoundTrip(managerOptionsSchema(), core::ManagerOptions{});
    expectRoundTrip(experimentSchema(), core::ExperimentConfig{});

    faults::BlackoutWindow blackout;
    blackout.start = sim::secondsToTicks(300);
    blackout.duration = sim::secondsToTicks(12600);
    expectRoundTrip(blackoutSchema(), blackout);

    faults::BurstyLoss bursty;
    bursty.enabled = true;
    bursty.enterBurstProbability = 0.02;
    bursty.exitBurstProbability = 0.3;
    bursty.goodLossProbability = 0.001;
    bursty.burstLossProbability = 0.7;
    expectRoundTrip(burstyLossSchema(), bursty);

    faults::SensorFault sensor;
    sensor.start = sim::secondsToTicks(60);
    sensor.duration = sim::secondsToTicks(600);
    sensor.mode = faults::SensorFaultMode::Bias;
    sensor.biasWatts = -250.0;
    sensor.noiseStddevWatts = 42.5;
    expectRoundTrip(sensorFaultSchema(), sensor);

    faults::OobOutage outage;
    outage.start = sim::secondsToTicks(90);
    outage.duration = sim::secondsToTicks(45);
    expectRoundTrip(oobOutageSchema(), outage);

    faults::ServerCrash crash;
    crash.at = sim::secondsToTicks(1800);
    crash.downtime = sim::secondsToTicks(900);
    crash.serverIndex = 7;
    expectRoundTrip(serverCrashSchema(), crash);
}

TEST(SchemaRoundTrip, NonTrivialValuesSurvive)
{
    // Values that stress the shortest-round-trip formatting: sub-tick
    // durations, thirds, and large seeds.
    cluster::RowConfig row;
    row.addedServerFraction = 1.0 / 3.0;
    expectRoundTrip(rowConfigSchema(), row);
    cluster::TopologyConfig topology;
    topology.telemetryInterval = sim::secondsToTicks(0.25);
    expectRoundTrip(topologyConfigSchema(), topology);

    core::ExperimentConfig config;
    config.seed = 123456789012345ull;
    config.powerScaleFactor = 1.05;
    config.duration = sim::secondsToTicks(2.5 * 86400.0);
    expectRoundTrip(experimentSchema(), config);
}

/** Apply @p body (as section content) onto @p obj; return the first
 *  diagnostic. */
template <typename T>
std::string
applyError(const StructSchema<T> &schema, const std::string &body,
           T &obj)
{
    Diagnostics diag;
    ConfigNode root = parseConfigString(body, "hostile.toml", diag);
    EXPECT_TRUE(diag.ok()) << diag.str();
    EXPECT_FALSE(schema.apply(root, obj, diag));
    return diag.ok() ? std::string() : diag.errors().front();
}

TEST(SchemaHostile, WrongUnitNamesFieldAndLine)
{
    power::GpuSpec gpu = power::GpuSpec::a100_80gb();
    std::string err =
        applyError(gpuSpecSchema(), "tdp_watts = 30%\n", gpu);
    EXPECT_NE(err.find("hostile.toml:1"), std::string::npos) << err;
    EXPECT_NE(err.find("row.server.gpu.tdp_watts"),
              std::string::npos) << err;
}

TEST(SchemaHostile, OutOfRange)
{
    cluster::RowConfig row;
    std::string err =
        applyError(rowConfigSchema(), "base_servers = 0\n", row);
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;

    std::string err2 = applyError(
        rowConfigSchema(), "added_server_fraction = 900%\n", row);
    EXPECT_NE(err2.find("out of range"), std::string::npos) << err2;
}

TEST(SchemaHostile, UnknownKeySuggestion)
{
    cluster::RowConfig row;
    std::string err =
        applyError(rowConfigSchema(), "based_servers = 4\n", row);
    EXPECT_NE(err.find("unknown key 'based_servers'"),
              std::string::npos) << err;
    EXPECT_NE(err.find("did you mean 'base_servers'"),
              std::string::npos) << err;

    // Series recording and row managers are experiment settings
    // (experiment.record_row_series, experiment.managed) in both
    // modes; [row] and [topology] have no keys for them.
    err = applyError(rowConfigSchema(), "record_power_series = true\n",
                     row);
    EXPECT_NE(err.find("unknown key 'record_power_series'"),
              std::string::npos) << err;
    cluster::TopologyConfig topology;
    for (const char *key : {"record_series", "manage_rows"}) {
        err = applyError(topologyConfigSchema(),
                         std::string(key) + " = true\n", topology);
        EXPECT_NE(err.find("unknown key '" + std::string(key) + "'"),
                  std::string::npos) << err;
    }

    // The flat row's breaker reads the [topology] row keys; the
    // [experiment] spellings are gone.
    core::ExperimentConfig experiment;
    for (const char *key : {"model_breaker", "breaker_limit_fraction",
                            "breaker_trip_duration"}) {
        err = applyError(experimentSchema(), std::string(key) + " = 1\n",
                         experiment);
        EXPECT_NE(err.find("unknown key '" + std::string(key) + "'"),
                  std::string::npos) << err;
    }

    // The flat row reads the [topology] cadence and balances its
    // pools on the workload mix: no [row] or [experiment] spelling.
    for (const char *key : {"telemetry_interval", "lp_server_fraction"}) {
        err = applyError(rowConfigSchema(), std::string(key) + " = 1\n",
                         row);
        EXPECT_NE(err.find("hostile.toml:1"), std::string::npos) << err;
        EXPECT_NE(err.find("unknown key '" + std::string(key) + "'"),
                  std::string::npos) << err;
    }
    err = applyError(experimentSchema(), "auto_balance_pools = false\n",
                     experiment);
    EXPECT_NE(err.find("hostile.toml:1"), std::string::npos) << err;
    EXPECT_NE(err.find("unknown key 'auto_balance_pools'"),
              std::string::npos) << err;
}

TEST(SchemaHostile, ScalarExpected)
{
    cluster::RowConfig row;
    std::string err = applyError(rowConfigSchema(),
                                 "base_servers = [1, 2]\n", row);
    EXPECT_NE(err.find("expected a scalar value"),
              std::string::npos) << err;
}

TEST(SchemaHostile, EnumAndBoolErrors)
{
    llm::ModelSpec model = llm::ModelCatalog().byName("BLOOM-176B");
    std::string err = applyError(
        modelSpecSchema(), "architecture = \"transformer\"\n", model);
    EXPECT_NE(err.find("unknown value 'transformer'"),
              std::string::npos) << err;
    EXPECT_NE(err.find("decoder"), std::string::npos) << err;

    core::ManagerOptions manager;
    std::string err2 = applyError(
        managerOptionsSchema(), "watchdog_enabled = maybe\n", manager);
    EXPECT_NE(err2.find("manager.watchdog_enabled"),
              std::string::npos) << err2;
}

TEST(SchemaHostile, LaterLinesAnchorCorrectly)
{
    core::ExperimentConfig config;
    std::string err = applyError(experimentSchema(),
                                 "seed = 1\n"
                                 "power_scale_factor = 1.05\n"
                                 "duration = 1q\n",
                                 config);
    EXPECT_NE(err.find("hostile.toml:3"), std::string::npos) << err;
}

TEST(SchemaMisc, FormatValueAndKeys)
{
    power::GpuSpec gpu = power::GpuSpec::a100_80gb();
    EXPECT_EQ(gpuSpecSchema().formatValue(gpu, "name"),
              quoteString(gpu.name));
    EXPECT_EQ(gpuSpecSchema().formatValue(gpu, "nope"),
              "<no such field>");
    // Every schema exposes at least one key, and apply() accepted
    // exactly those keys in the round-trip test above.
    EXPECT_FALSE(experimentSchema().keys().empty());
}

} // namespace
