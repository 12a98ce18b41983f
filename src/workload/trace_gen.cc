#include "workload/trace_gen.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace polca::workload {

TraceGenerator::TraceGenerator(std::vector<WorkloadSpec> mix)
    : mix_(std::move(mix))
{
    if (mix_.empty())
        sim::fatal("TraceGenerator: empty workload mix");
    double total = 0.0;
    for (const auto &w : mix_)
        total += w.trafficFraction;
    if (std::abs(total - 1.0) > 1e-6)
        sim::fatal("TraceGenerator: traffic fractions sum to ", total);
    weights_.reserve(mix_.size());
    for (const auto &w : mix_)
        weights_.push_back(w.trafficFraction);
}

Request
TraceGenerator::sampleRequest(sim::Rng &rng, sim::Tick arrival,
                              std::uint64_t id) const
{
    std::size_t index = rng.weightedIndex(weights_);
    const WorkloadSpec &w = mix_[index];

    Request request;
    request.arrival = arrival;
    request.id = id;
    request.workloadIndex = static_cast<std::uint32_t>(index);
    request.priority = rng.bernoulli(w.highPriorityFraction)
        ? Priority::High : Priority::Low;
    request.inputTokens = static_cast<std::int32_t>(
        rng.uniformInt(w.promptMin, w.promptMax));
    request.outputTokens = static_cast<std::int32_t>(
        rng.uniformInt(w.outputMin, w.outputMax));
    return request;
}

Trace
TraceGenerator::generate(const TraceGenOptions &options) const
{
    if (options.duration <= 0 || options.numServers <= 0 ||
        options.serviceSecondsPerRequest <= 0.0) {
        sim::fatal("TraceGenerator::generate: invalid options");
    }

    sim::Rng rng(options.seed);
    sim::Rng sizeRng = rng.fork(1);
    DiurnalModel diurnal(options.diurnal, rng.fork(2));

    Trace trace(options.duration);
    std::uint64_t id = 0;
    const sim::Tick bin = sim::secondsToTicks(1.0);

    for (sim::Tick t = 0; t < options.duration; t += bin) {
        double utilization = diurnal.utilizationAt(t);
        double rate = utilization * options.numServers /
            options.serviceSecondsPerRequest;  // requests/second

        std::poisson_distribution<int> poisson(rate);
        int arrivals = poisson(rng.engine());
        if (arrivals <= 0)
            continue;

        // Place arrivals uniformly within the bin, sorted.
        std::vector<sim::Tick> offsets;
        offsets.reserve(static_cast<std::size_t>(arrivals));
        for (int i = 0; i < arrivals; ++i)
            offsets.push_back(rng.uniformInt(0, bin - 1));
        std::sort(offsets.begin(), offsets.end());
        for (sim::Tick offset : offsets)
            trace.add(sampleRequest(sizeRng, t + offset, id++));
    }
    return trace;
}

Trace
TraceGenerator::regenerate(const Trace &reference, sim::Tick binWidth,
                           std::uint64_t seed) const
{
    if (reference.empty())
        sim::fatal("TraceGenerator::regenerate: empty reference");

    sim::Rng rng(seed);
    sim::Rng sizeRng = rng.fork(1);

    std::vector<std::uint64_t> counts =
        reference.binnedArrivals(binWidth);
    Trace trace(reference.duration());
    std::uint64_t id = 0;

    for (std::size_t b = 0; b < counts.size(); ++b) {
        if (counts[b] == 0)
            continue;
        sim::Tick binStart = static_cast<sim::Tick>(b) * binWidth;
        sim::Tick binEnd =
            std::min(binStart + binWidth, reference.duration());
        std::vector<sim::Tick> offsets;
        offsets.reserve(counts[b]);
        for (std::uint64_t i = 0; i < counts[b]; ++i) {
            offsets.push_back(
                rng.uniformInt(binStart, std::max(binStart,
                                                  binEnd - 1)));
        }
        std::sort(offsets.begin(), offsets.end());
        for (sim::Tick arrival : offsets)
            trace.add(sampleRequest(sizeRng, arrival, id++));
    }
    trace.setDuration(reference.duration());
    return trace;
}

namespace {

double
meanServiceSeconds(const WorkloadSpec &w, const llm::PhaseModel &model)
{
    llm::InferenceConfig config;
    config.inputTokens = (w.promptMin + w.promptMax) / 2;
    config.outputTokens = (w.outputMin + w.outputMax) / 2;
    config.batchSize = 1;
    return sim::ticksToSeconds(model.totalLatency(config));
}

} // namespace

double
TraceGenerator::expectedServiceSeconds(
    const llm::PhaseModel &model) const
{
    double expected = 0.0;
    for (const auto &w : mix_)
        expected += w.trafficFraction * meanServiceSeconds(w, model);
    return expected;
}

double
TraceGenerator::lowPriorityWorkShare(const llm::PhaseModel &model) const
{
    double low = 0.0;
    double total = 0.0;
    for (const auto &w : mix_) {
        double work = w.trafficFraction * meanServiceSeconds(w, model);
        low += work * (1.0 - w.highPriorityFraction);
        total += work;
    }
    return total > 0.0 ? low / total : 0.5;
}

} // namespace polca::workload
