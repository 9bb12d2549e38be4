#include "support/rng.hh"

#include "support/diagnostics.hh"

namespace ujam
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : state_)
        word = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    UJAM_ASSERT(lo <= hi, "bad range [", lo, ", ", hi, "]");
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0)
        return static_cast<std::int64_t>(next());
    return lo + static_cast<std::int64_t>(next() % span);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

std::uint64_t
Rng::deriveStream(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t sm = seed;
    std::uint64_t mixed = splitMix64(sm);
    sm = mixed ^ (stream + 0x632be59bd9b4e019ULL);
    mixed = splitMix64(sm);
    return splitMix64(sm) ^ mixed;
}

} // namespace ujam
