// Deterministic, stateless pseudo-randomness for the simulator.
//
// Every source of "noise" in the simulation (OST service jitter, etc.)
// is a pure hash of (seed, stream identifiers, sequence number), so a run
// is reproducible bit-for-bit regardless of event interleaving and no
// mutable RNG state has to be threaded through the model. The functions
// are inline: byte-true payloads call mix64 once per byte.
#pragma once

#include <cstdint>

namespace parcoll::sim {

/// splitmix64 finalizer: a strong 64-bit mixing function.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Combine hash values (boost::hash_combine style, 64-bit).
[[nodiscard]] inline std::uint64_t hash_combine(std::uint64_t a,
                                                std::uint64_t b) {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 12) + (a >> 4)));
}

/// Uniform double in [0, 1) derived from a hash value.
[[nodiscard]] inline double uniform01(std::uint64_t h) {
  // Use the top 53 bits for a uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Convenience: uniform double in [0,1) from up to three stream ids.
[[nodiscard]] inline double jitter01(std::uint64_t seed, std::uint64_t stream,
                                     std::uint64_t seq) {
  return uniform01(hash_combine(hash_combine(mix64(seed), stream), seq));
}

}  // namespace parcoll::sim
