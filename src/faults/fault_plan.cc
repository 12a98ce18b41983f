#include "faults/fault_plan.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/logging.hh"

namespace polca::faults {

const char *
toString(SensorFaultMode mode)
{
    switch (mode) {
      case SensorFaultMode::Bias:
        return "bias";
      case SensorFaultMode::Noise:
        return "noise";
      case SensorFaultMode::StuckAtLast:
        return "stuck-at-last";
    }
    return "?";
}

bool
FaultPlan::empty() const
{
    return blackouts.empty() && !burstyLoss.enabled &&
        sensorFaults.empty() && oobOutages.empty() &&
        crashes.empty() && controllerCrashes.empty();
}

namespace {

std::string
windowText(sim::Tick start, sim::Tick duration)
{
    std::string text = "[";
    text += std::to_string(start);
    text += ", +";
    text += std::to_string(duration);
    text += ")";
    return text;
}

void
checkWindow(std::vector<std::string> &out, const char *what,
            sim::Tick start, sim::Tick duration)
{
    if (start < 0 || duration <= 0) {
        out.push_back(std::string(what) + " window " +
                      windowText(start, duration) +
                      " is not a valid interval");
    }
}

void
checkProbability(std::vector<std::string> &out, const char *what,
                 double p)
{
    if (p < 0.0 || p > 1.0) {
        out.push_back(std::string(what) + " probability " +
                      std::to_string(p) + " outside [0,1]");
    }
}

/** Report every pair of overlapping [start, start+duration) windows
 *  in @p windows (already reduced to start/duration pairs). */
void
checkOverlaps(std::vector<std::string> &out, const char *what,
              std::vector<std::pair<sim::Tick, sim::Tick>> windows)
{
    std::sort(windows.begin(), windows.end());
    for (std::size_t i = 1; i < windows.size(); ++i) {
        const auto &[prevStart, prevDuration] = windows[i - 1];
        const auto &[start, duration] = windows[i];
        if (prevDuration > 0 && start < prevStart + prevDuration) {
            out.push_back(std::string(what) + " windows " +
                          windowText(prevStart, prevDuration) +
                          " and " + windowText(start, duration) +
                          " overlap");
        }
    }
}

} // namespace

std::vector<std::string>
FaultPlan::problems() const
{
    std::vector<std::string> out;

    std::vector<std::pair<sim::Tick, sim::Tick>> windows;
    for (const BlackoutWindow &w : blackouts) {
        checkWindow(out, "blackout", w.start, w.duration);
        windows.emplace_back(w.start, w.duration);
    }
    checkOverlaps(out, "blackout", windows);

    if (burstyLoss.enabled) {
        checkProbability(out, "enter-burst",
                         burstyLoss.enterBurstProbability);
        checkProbability(out, "exit-burst",
                         burstyLoss.exitBurstProbability);
        checkProbability(out, "good-loss",
                         burstyLoss.goodLossProbability);
        checkProbability(out, "burst-loss",
                         burstyLoss.burstLossProbability);
    }
    for (const SensorFault &f : sensorFaults) {
        checkWindow(out, "sensor-fault", f.start, f.duration);
        if (f.mode == SensorFaultMode::Noise &&
            f.noiseStddevWatts < 0.0) {
            out.push_back("sensor-fault noise stddev is negative");
        }
    }
    for (const OobOutage &o : oobOutages)
        checkWindow(out, "oob-outage", o.start, o.duration);

    // Crashes: a crash that never restarts leaves the server
    // permanently dark — legal only when said out loud.  Overlapping
    // downtime on one server means a crash of a server that is
    // already down.
    std::vector<std::pair<int, std::pair<sim::Tick, sim::Tick>>>
        byServer;
    for (const ServerCrash &c : crashes) {
        if (c.at < 0) {
            out.push_back("crash at negative time " +
                          std::to_string(c.at));
        }
        if (c.serverIndex < 0)
            out.push_back("crash has a negative server index");
        if (c.permanent) {
            if (c.downtime != 0) {
                out.push_back(
                    "permanent crash at " + std::to_string(c.at) +
                    " must not set a downtime (it never restarts)");
            }
        } else if (c.downtime <= 0) {
            out.push_back(
                "crash at " + std::to_string(c.at) + " has no "
                "restart; set permanent = true to deliberately "
                "leave the server dark");
        }
        byServer.emplace_back(
            c.serverIndex,
            std::make_pair(c.at, c.permanent
                                     ? std::numeric_limits<
                                           sim::Tick>::max() -
                                           c.at
                                     : c.downtime));
    }
    std::sort(byServer.begin(), byServer.end());
    for (std::size_t i = 1; i < byServer.size(); ++i) {
        if (byServer[i].first != byServer[i - 1].first)
            continue;
        const auto &[prevStart, prevDuration] = byServer[i - 1].second;
        const auto &[start, duration] = byServer[i].second;
        if (start < prevStart + prevDuration) {
            out.push_back(
                "server " + std::to_string(byServer[i].first) +
                " crashes at " + std::to_string(start) +
                " while already down (downtime " +
                windowText(prevStart, prevDuration) + ")");
        }
    }

    windows.clear();
    for (const ControllerCrash &c : controllerCrashes) {
        checkWindow(out, "controller-crash", c.at, c.downtime);
        windows.emplace_back(c.at, c.downtime);
    }
    checkOverlaps(out, "controller-crash", windows);
    return out;
}

void
FaultPlan::validate() const
{
    std::vector<std::string> found = problems();
    if (!found.empty())
        sim::fatal("FaultPlan: ", found.front());
}

const std::vector<FaultScenario> &
faultScenarios()
{
    static const std::vector<FaultScenario> all = {
        {"none", "ideal sensing and actuation",
         [](sim::Tick, int) { return FaultPlan{}; }},
        {"blackout", "telemetry fully dark for 15 min at 25% of the run",
         [](sim::Tick duration, int) {
             FaultPlan plan;
             BlackoutWindow window;
             window.start = duration / 4;
             window.duration = std::min<sim::Tick>(
                 sim::secondsToTicks(900), duration / 2);
             plan.blackouts.push_back(window);
             return plan;
         }},
        {"bursty", "Gilbert-Elliott reading loss (bursts, not i.i.d.)",
         [](sim::Tick, int) {
             // Mean burst ~10 readings, ~10 % of time in burst.
             FaultPlan plan;
             plan.burstyLoss.enabled = true;
             plan.burstyLoss.enterBurstProbability = 0.01;
             plan.burstyLoss.exitBurstProbability = 0.1;
             plan.burstyLoss.goodLossProbability = 0.01;
             plan.burstyLoss.burstLossProbability = 0.95;
             return plan;
         }},
        {"flaky-sensor", "low-biased then stuck-at-last sensor windows",
         [](sim::Tick duration, int) {
             // A low-reading sensor makes POLCA think the row is safe
             // while it is not.
             FaultPlan plan;
             SensorFault bias;
             bias.start = duration / 5;
             bias.duration = duration / 5;
             bias.mode = SensorFaultMode::Bias;
             bias.biasWatts = -20000.0;  // under-reports: the unsafe lie
             plan.sensorFaults.push_back(bias);

             SensorFault stuck;
             stuck.start = (duration * 3) / 5;
             stuck.duration = duration / 5;
             stuck.mode = SensorFaultMode::StuckAtLast;
             plan.sensorFaults.push_back(stuck);
             return plan;
         }},
        {"oob-outage", "all SMBPBI command channels dead for 20 min",
         [](sim::Tick duration, int) {
             FaultPlan plan;
             OobOutage outage;
             outage.start = duration / 3;
             outage.duration = std::min<sim::Tick>(
                 sim::secondsToTicks(1200), duration / 3);
             plan.oobOutages.push_back(outage);
             return plan;
         }},
        {"crashes", "rolling server crash/restart wave",
         [](sim::Tick duration, int numServers) {
             // Every ~8 % of the run another server goes down for 5
             // minutes.
             FaultPlan plan;
             int victims = std::max(1, numServers / 4);
             for (int i = 0; i < victims; ++i) {
                 ServerCrash crash;
                 crash.at = duration / 10 + (duration * i) / 12;
                 crash.downtime = std::min<sim::Tick>(
                     sim::secondsToTicks(300), duration / 10);
                 crash.serverIndex = i % std::max(1, numServers);
                 plan.crashes.push_back(crash);
             }
             return plan;
         }},
    };
    return all;
}

FaultPlan
scenarioByName(const std::string &name, sim::Tick duration,
               int numServers)
{
    if (duration <= 0)
        sim::fatal("scenarioByName: non-positive duration");
    for (const FaultScenario &scenario : faultScenarios()) {
        if (scenario.name != name)
            continue;
        FaultPlan plan = scenario.build(duration, numServers);
        plan.validate();
        return plan;
    }
    sim::fatal("unknown fault scenario '", name, "'");
}

} // namespace polca::faults
