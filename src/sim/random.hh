/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * Every source of randomness in polcasim flows through an Rng that is
 * explicitly seeded, so a simulation with the same configuration and
 * seed reproduces bit-identical trajectories.  Child generators can be
 * forked with independent streams for per-component randomness.
 *
 * A stream costs nothing until it is drawn from.  An Rng holds its
 * seed inline and builds its std::mt19937_64 (2.5 KB of state) on the
 * first draw, so the thousands of per-server streams that a site
 * forks and never draws (an OOB channel that never drops a command,
 * telemetry without dropout) stay 16 bytes each.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string_view>
#include <vector>

namespace polca::sim {

/**
 * Seeded pseudo-random generator with the distributions the models
 * need.  Thin wrapper over std::mt19937_64, built on first use.
 *
 * The engine is created from seed() by the first draw or engine()
 * call; seed(), fork() and forkPath() never build it, and reseed()
 * drops it.  The stream is the same either way: draw k of an Rng is
 * draw k of std::mt19937_64(seed()).
 *
 * Copies continue the original's stream draw for draw: a copy of an
 * unbuilt Rng is unbuilt, a copy of a built one deep-copies the
 * engine.  Copying reads the source only, so any number of threads
 * may copy one shared const Rng (a warmup snapshot) at once.  A
 * moved-from Rng keeps its seed and loses its engine: its next draw
 * restarts the stream from seed(), as after reseed(seed()).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull)
        : seed_(seed)
    {}

    Rng(const Rng &other)
        : seed_(other.seed_),
          engine_(other.engine_
                      ? std::make_unique<std::mt19937_64>(*other.engine_)
                      : nullptr)
    {}

    Rng &operator=(const Rng &other);
    Rng(Rng &&other) noexcept = default;
    Rng &operator=(Rng &&other) noexcept = default;

    /** Seed used at construction (or last reseed). */
    std::uint64_t seed() const { return seed_; }

    /** Reset the stream to @p seed (drops any built engine). */
    void
    reseed(std::uint64_t seed)
    {
        seed_ = seed;
        engine_.reset();
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
        return std::uniform_real_distribution<double>(0.0, 1.0)(
            engine());
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine());
    }

    /** Uniform integer in [lo, hi] (inclusive). */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(
            engine());
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
            stddev * std::normal_distribution<double>(0.0, 1.0)(engine());
    }

    /** Bernoulli trial. */
    bool
    bernoulli(double p)
    {
        return std::bernoulli_distribution(p)(engine());
    }

    /**
     * Sample an index from unnormalized non-negative weights.
     * Weights summing to zero are a caller error.
     */
    std::size_t weightedIndex(const std::vector<double> &weights);

    /** Access the raw engine (for std distributions); builds it on
     *  first use. */
    std::mt19937_64 &
    engine()
    {
        if (!engine_)
            buildEngine();
        return *engine_;
    }

  private:
    /** Create the engine at the start of seed()'s stream. */
    void buildEngine();

    std::uint64_t seed_;
    std::unique_ptr<std::mt19937_64> engine_;  ///< null until drawn
};

} // namespace polca::sim

