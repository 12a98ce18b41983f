/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * Every source of randomness in polcasim flows through an Rng that is
 * explicitly seeded, so a simulation with the same configuration and
 * seed reproduces bit-identical trajectories.  Child generators can be
 * forked with independent streams for per-component randomness.
 */

#pragma once

#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

namespace polca::sim {

/**
 * Seeded pseudo-random generator with the distributions the models
 * need.  Thin wrapper over std::mt19937_64.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull)
        : engine_(seed), seed_(seed)
    {}

    /** Seed used at construction (or last reseed). */
    std::uint64_t seed() const { return seed_; }

    /** Reset the stream to @p seed. */
    void
    reseed(std::uint64_t seed)
    {
        seed_ = seed;
        engine_.seed(seed);
    }

    /**
     * Fork an independent child stream.  The child seed mixes this
     * stream's seed with @p salt so that components get stable,
     * uncorrelated streams regardless of draw order elsewhere.
     */
    Rng
    fork(std::uint64_t salt) const
    {
        std::uint64_t mixed = seed_ ^ (salt * 0xBF58476D1CE4E5B9ull + 1);
        mixed ^= mixed >> 31;
        mixed *= 0x94D049BB133111EBull;
        mixed ^= mixed >> 29;
        return Rng(mixed);
    }

    /**
     * Fork an independent child stream keyed by a name (e.g. a power
     * domain's name).  The salt is the FNV-1a 64-bit hash of
     * @p segment, mixed with this stream's seed exactly like fork(),
     * so the stream a named child receives depends only on
     * (parent seed, name): adding or removing sibling components
     * never reshuffles it, unlike sequential draws or index-based
     * salts.  Nested forkPath() calls key a stream by its full path.
     */
    Rng
    forkPath(std::string_view segment) const
    {
        std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset
        for (char c : segment) {
            hash ^= static_cast<std::uint64_t>(
                static_cast<unsigned char>(c));
            hash *= 0x100000001b3ull;  // FNV-1a prime
        }
        return fork(hash);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /** Uniform integer in [lo, hi] (inclusive). */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    /**
     * Normal with mean/stddev.  Scales a unit draw rather than
     * handing @p stddev to std::normal_distribution, which requires
     * stddev > 0: a zero stddev (a noise-free model, a noise fault
     * of 0 W) returns @p mean and still consumes the same engine
     * draws.  For stddev > 0 the value is bitwise what the library
     * distribution returns (z * stddev + mean).
     */
    double
    normal(double mean, double stddev)
    {
        return mean +
            stddev * std::normal_distribution<double>(0.0, 1.0)(engine_);
    }

    /** Bernoulli trial. */
    bool
    bernoulli(double p)
    {
        return std::bernoulli_distribution(p)(engine_);
    }

    /**
     * Sample an index from unnormalized non-negative weights.
     * Weights summing to zero are a caller error.
     */
    std::size_t weightedIndex(const std::vector<double> &weights);

    /** Access the raw engine (for std distributions). */
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
    std::uint64_t seed_;
};

} // namespace polca::sim

