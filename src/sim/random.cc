#include "sim/random.hh"

#include "core/contracts.hh"

namespace polca::sim {

Rng &
Rng::operator=(const Rng &other)
{
    if (this == &other)
        return *this;
    seed_ = other.seed_;
    if (!other.engine_)
        engine_.reset();
    else if (engine_)
        *engine_ = *other.engine_;  // reuse this Rng's allocation
    else
        engine_ = std::make_unique<std::mt19937_64>(*other.engine_);
    return *this;
}

void
Rng::buildEngine()
{
    engine_ = std::make_unique<std::mt19937_64>(seed_);
}

std::size_t
Rng::weightedIndex(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        POLCA_CHECK(w >= 0.0, "negative weight ", w);
        total += w;
    }
    POLCA_CHECK(total > 0.0, "weights sum to zero");

    double draw = uniform() * total;
    double running = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        running += weights[i];
        if (draw < running)
            return i;
    }
    return weights.size() - 1;
}

} // namespace polca::sim
