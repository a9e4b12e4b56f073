// Copyright (c) swsample authors. Licensed under the MIT license.
//
// The benchmark's own seeded input generator. It deliberately does not use
// the library's stream/workload generators: two commits are compared on the
// inputs generated here, so a change to the library's generators cannot
// change what either commit is fed. The same seed gives byte-identical
// inputs, and every input carries an FNV-1a digest that the result records.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stream/item.h"

namespace perfbench {

/// xoshiro256** seeded through splitmix64; `stream` separates the draws of
/// different inputs made from one seed.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream) {
    uint64_t x = seed ^ (stream * 0xd1b54a32d192ed03ULL);
    for (uint64_t& word : s_) word = SplitMix(&x);
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform integer in [0, bound).
  uint64_t Below(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

 private:
  static uint64_t SplitMix(uint64_t* x) {
    uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

/// Poisson(lambda) by Knuth's product method (lambda is small here).
class Poisson {
 public:
  explicit Poisson(double lambda) : limit_(std::exp(-lambda)) {}
  uint64_t operator()(Rng& rng) const {
    uint64_t k = 0;
    for (double p = rng.Uniform(); p > limit_; p *= rng.Uniform()) ++k;
    return k;
  }

 private:
  double limit_;
};

/// Zipf(s) over {1, ..., n} by rejection-inversion (Hormann & Derflinger,
/// "Rejection-inversion to generate variates from monotone discrete
/// distributions", 1996): O(1) per draw, no table.
class Zipf {
 public:
  Zipf(uint64_t n, double s) : n_(n), s_(s) {
    h_x1_ = HIntegral(1.5) - 1.0;
    h_n_ = HIntegral(static_cast<double>(n) + 0.5);
    squeeze_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
  }

  uint64_t operator()(Rng& rng) const {
    for (;;) {
      const double u = h_n_ + rng.Uniform() * (h_x1_ - h_n_);
      const double x = HIntegralInverse(u);
      double k = std::floor(x + 0.5);
      if (k < 1.0) k = 1.0;
      if (k > static_cast<double>(n_)) k = static_cast<double>(n_);
      if (k - x <= squeeze_ || u >= HIntegral(k + 0.5) - H(k)) {
        return static_cast<uint64_t>(k);
      }
    }
  }

 private:
  double H(double x) const { return std::exp(-s_ * std::log(x)); }
  double HIntegral(double x) const {
    const double log_x = std::log(x);
    return Helper2((1.0 - s_) * log_x) * log_x;
  }
  double HIntegralInverse(double x) const {
    double t = x * (1.0 - s_);
    if (t < -1.0) t = -1.0;
    return std::exp(Helper1(t) * x);
  }
  // log1p(x)/x and expm1(x)/x, continuous at 0.
  static double Helper1(double x) {
    return std::fabs(x) > 1e-8
               ? std::log1p(x) / x
               : 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
  }
  static double Helper2(double x) {
    return std::fabs(x) > 1e-8
               ? std::expm1(x) / x
               : 1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x));
  }

  uint64_t n_;
  double s_;
  double h_x1_ = 0.0;
  double h_n_ = 0.0;
  double squeeze_ = 0.0;
};

/// Incremental FNV-1a 64.
class Digest {
 public:
  void Add(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
  }
  void Add(uint64_t v) { Add(&v, sizeof(v)); }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The value and key distribution of every workload: Zipf(1.1) over 1e6.
inline constexpr uint64_t kValueDomain = 1000000;
inline constexpr double kZipfExponent = 1.1;

/// A generated input: what the run feeds, plus what the output checks need.
struct Input {
  std::vector<swsample::Item> items;  ///< in-memory workloads only
  std::string path;                   ///< file workloads only
  uint64_t count = 0;                 ///< events in the input
  swsample::Timestamp last_ts = 0;    ///< final timestamp (ts inputs)
  uint64_t bytes = 0;                 ///< file size (file workloads)
  std::string digest;
};

/// Timestamped items: Poisson(arrivals_per_unit) arrivals per time unit
/// (`poisson` false: exactly arrivals_per_unit), Zipf(1.1) values.
Input MakeTsItems(uint64_t seed, uint64_t stream, uint64_t count,
                  double arrivals_per_unit, bool poisson);

/// Writes `count` event lines to `path`: "<ts> <value>" with Poisson(4)
/// arrivals per time unit when `timestamped`, else "<value>"; Zipf(1.1)
/// values. The digest covers the file's bytes. Empty `digest` on I/O
/// failure.
Input WriteEventFile(uint64_t seed, uint64_t stream, uint64_t count,
                     bool timestamped, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
