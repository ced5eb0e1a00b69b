#ifndef OSRS_COMMON_RNG_H_
#define OSRS_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace osrs {

/// The splitmix64 finalizer: a bijective, full-avalanche mix of one 64-bit
/// word (output i of a SplitMix64 sequence from state 0 is
/// Mix64((i + 1) * 0x9E3779B97F4A7C15)). The library's one integer hash:
/// seeding, trace ids, option fingerprints, retry jitter and the
/// FoldTargets table. Inline because FoldTargets hashes every pair of
/// every solve through it.
inline constexpr uint64_t Mix64(uint64_t h) {
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

/// Deterministic, seedable pseudo-random generator (xoshiro256** core with a
/// SplitMix64 seeding sequence).
///
/// Every randomized component in the library takes an explicit Rng (or a
/// seed) so that corpora, algorithms and experiments are reproducible
/// bit-for-bit across runs. Satisfies the essential parts of the standard
/// UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  /// Next raw 64 random bits.
  uint64_t Next();
  result_type operator()() { return Next(); }

  /// Uniform integer in [0, bound). `bound` must be positive. Uses unbiased
  /// rejection sampling (Lemire-style) rather than modulo.
  uint64_t NextUint64(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Standard normal deviate (Box-Muller, no caching for determinism).
  double NextGaussian();

  /// Normal deviate with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// True with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Zipf-distributed rank in [0, n) with exponent `s` (s > 0). Rank 0 is the
  /// most probable. Implemented by inversion on the precomputable CDF is too
  /// costly per call for large n, so uses rejection sampling (Devroye).
  uint64_t NextZipf(uint64_t n, double s);

  /// Index in [0, weights.size()) sampled proportionally to `weights`.
  /// Weights must be non-negative with a positive sum.
  size_t NextDiscrete(std::span<const double> weights);
  size_t NextDiscrete(const std::vector<double>& weights) {
    return NextDiscrete(std::span<const double>(weights));
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextUint64(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Samples `count` distinct indices from [0, n) uniformly (reservoir-free
  /// partial Fisher-Yates). Requires count <= n. Result is in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t count);

  /// Deterministically derives an independent child generator; used to give
  /// each item / worker its own stream.
  Rng Fork();

 private:
  uint64_t state_[4];
};

}  // namespace osrs

#endif  // OSRS_COMMON_RNG_H_
