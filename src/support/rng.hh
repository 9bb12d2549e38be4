/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The synthetic routine corpus (Table 1 experiment) and the property
 * tests must be reproducible across platforms and standard-library
 * versions, so we use our own xoshiro256** generator rather than
 * std::mt19937 with distribution objects (whose outputs are not
 * specified portably).
 */

#ifndef UJAM_SUPPORT_RNG_HH
#define UJAM_SUPPORT_RNG_HH

#include <cstdint>
#include <vector>

namespace ujam
{

/** xoshiro256** seeded through SplitMix64; fully deterministic. */
class Rng
{
  public:
    /** Construct from a 64-bit seed. */
    explicit Rng(std::uint64_t seed);

    /** @return The next raw 64-bit value. */
    std::uint64_t next();

    /**
     * @return A uniform integer in [lo, hi].
     * @pre lo <= hi
     */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** @return A uniform double in [0, 1). */
    double uniform();

    /** @return True with probability p (clamped to [0, 1]). */
    bool chance(double p);

    /**
     * Derive the seed of an independent stream from a master seed.
     *
     * Deterministic mixing (SplitMix64 over seed and stream index), so
     * per-item generators -- e.g. one per corpus routine -- depend only
     * on (seed, index), never on how many items other threads drew
     * before them. This is what makes parallel generation bit-identical
     * to serial generation.
     */
    static std::uint64_t deriveStream(std::uint64_t seed,
                                      std::uint64_t stream);

  private:
    std::uint64_t state_[4];
};

} // namespace ujam

#endif // UJAM_SUPPORT_RNG_HH
