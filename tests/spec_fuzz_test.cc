// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Seeded mutation fuzzing of the two spec grammars, ParseSinkSpec
// (apps/sink_spec.h, behind --sink/--algo/--estimator) and
// ParseWorkloadSpec (stream/workload.h, behind --workload). Mutants of a
// fixed list of valid specs (byte flips, truncations, duplicated
// separators and huge or odd numbers) must either fail with
// InvalidArgument or parse to a spec that formats, parses back and is
// equal, field by field. The seeds are fixed, so every run checks the same
// mutants; a failure names the seed and the mutant.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "apps/sink_spec.h"
#include "stream/workload.h"
#include "util/rng.h"

namespace swsample {
namespace {

constexpr uint64_t kMutantsPerSeed = 4000;

const char* const kSinkSpecs[] = {
    "bop-seq-swor,n=65536,k=64,seed=7",
    "bop-ts-single,t=100",
    "ams-fk@bop-ts-swr,t=1000,r=256,moment=3",
    "biased-mean,t=4096,bias=1024:0.25+4096:0.75,eps=0.1",
    "exact-seq,n=32,k=4,wr=0",
    "dkw-quantile@bop-seq-swor,n=500,r=128,q=0.95",
    "buriol-triangles,n=64,vertices=12,oversample=5",
};

const char* const kWorkloadSpecs[] = {
    "constant@zipf,rate=8,domain=64,alpha=1.2",
    "poisson@uniform,lambda=0.5,domain=1048576",
    "bmodel@seq,bias=0.8,levels=6,volume=512,dup=0.05,duplag=16",
    "churn,t=24,skew=32,skewp=0.5",
};

/// Tokens a mutation splices in for a number: the u64 limit and one past
/// it, far past it, signs, exponents, hex floats, and the non-finite
/// doubles strtod accepts.
const char* const kOddNumbers[] = {
    "18446744073709551615", "18446744073709551616", "99999999999999999999999",
    "-1", "+5", " 7", "0", "1e308", "1e309", "-0", "0x1p4", "1e-320",
    "nan", "inf", "-inf", "4.", ".5",
};

bool IsSeparator(char c) {
  return c == ',' || c == '=' || c == '@' || c == '+' || c == ':';
}

/// A mutant of `text` (a valid spec): one to three edits.
std::string Mutant(Rng& rng, std::string text) {
  static constexpr char kBytes[] = ",=@+:.-e0123456789 xnkt\0\xff";
  const uint64_t edits = 1 + rng.UniformIndex(3);
  for (uint64_t e = 0; e < edits; ++e) {
    const size_t at = rng.UniformIndex(text.size() + 1);
    switch (rng.UniformIndex(4)) {
      case 0:  // flip a byte, to a grammar byte or any byte
        if (at < text.size()) {
          text[at] = rng.UniformIndex(2) == 0
                         ? kBytes[rng.UniformIndex(sizeof(kBytes) - 1)]
                         : static_cast<char>(rng.UniformIndex(256));
        }
        break;
      case 1:  // truncate
        text.resize(at);
        break;
      case 2: {  // duplicate a separator
        for (size_t i = at; i < text.size(); ++i) {
          if (IsSeparator(text[i])) {
            text.insert(i, 1, text[i]);
            break;
          }
        }
        break;
      }
      default: {  // replace the digit run at or after `at` by an odd number
        size_t begin = at;
        while (begin < text.size() &&
               (text[begin] < '0' || text[begin] > '9')) {
          ++begin;
        }
        size_t end = begin;
        while (end < text.size() &&
               ((text[end] >= '0' && text[end] <= '9') || text[end] == '.')) {
          ++end;
        }
        text.replace(begin, end - begin,
                     kOddNumbers[rng.UniformIndex(std::size(kOddNumbers))]);
        break;
      }
    }
  }
  return text;
}

/// Doubles are equal when they compare equal or are both NaN.
bool SameDouble(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

void ExpectSameSinkSpec(const SinkSpec& a, const SinkSpec& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.substrate, b.substrate);
  EXPECT_EQ(a.window_n, b.window_n);
  EXPECT_EQ(a.window_t, b.window_t);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.r, b.r);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.moment, b.moment);
  EXPECT_EQ(a.num_vertices, b.num_vertices);
  EXPECT_TRUE(SameDouble(a.count_eps, b.count_eps));
  EXPECT_TRUE(SameDouble(a.q, b.q));
  ASSERT_EQ(a.bias_levels.size(), b.bias_levels.size());
  for (size_t i = 0; i < a.bias_levels.size(); ++i) {
    EXPECT_EQ(a.bias_levels[i].window, b.bias_levels[i].window);
    EXPECT_TRUE(
        SameDouble(a.bias_levels[i].weight, b.bias_levels[i].weight));
  }
  EXPECT_EQ(a.oversample_factor, b.oversample_factor);
  EXPECT_EQ(a.with_replacement, b.with_replacement);
}

void ExpectSameWorkloadSpec(const WorkloadSpec& a, const WorkloadSpec& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.rate, b.rate);
  EXPECT_TRUE(SameDouble(a.lambda, b.lambda));
  EXPECT_TRUE(SameDouble(a.bias, b.bias));
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.volume, b.volume);
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(a.domain, b.domain);
  EXPECT_TRUE(SameDouble(a.alpha, b.alpha));
  EXPECT_EQ(a.skew, b.skew);
  EXPECT_TRUE(SameDouble(a.skew_p, b.skew_p));
  EXPECT_TRUE(SameDouble(a.dup, b.dup));
  EXPECT_EQ(a.dup_lag, b.dup_lag);
}

/// Runs the mutants of `seeds` through `parse` and checks each outcome;
/// `round_trip` checks a parsed spec. Both outcomes must occur.
template <typename ParseFn, typename RoundTripFn>
void FuzzGrammar(uint64_t seed, std::span<const char* const> seeds,
                 ParseFn parse, RoundTripFn round_trip) {
  Rng rng(seed);
  uint64_t failures = 0;
  uint64_t successes = 0;
  for (uint64_t m = 0; m < kMutantsPerSeed; ++m) {
    const std::string text =
        Mutant(rng, seeds[rng.UniformIndex(seeds.size())]);
    SCOPED_TRACE("mutant " + std::to_string(m) + ": \"" + text + "\"");
    const auto parsed = parse(text);
    if (!parsed.ok()) {
      ASSERT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << parsed.status().ToString();
      ++failures;
      continue;
    }
    ++successes;
    round_trip(parsed.value());
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(successes, kMutantsPerSeed / 10);
  EXPECT_GT(failures, kMutantsPerSeed / 4);
}

class SpecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpecFuzzTest, SinkSpecMutantsFailCleanlyOrRoundTrip) {
  FuzzGrammar(GetParam(), kSinkSpecs, ParseSinkSpec,
              [](const SinkSpec& spec) {
                const std::string canonical = FormatSinkSpec(spec);
                const auto again = ParseSinkSpec(canonical);
                ASSERT_TRUE(again.ok()) << canonical << ": "
                                        << again.status().ToString();
                ExpectSameSinkSpec(again.value(), spec);
                EXPECT_EQ(FormatSinkSpec(again.value()), canonical);
              });
}

TEST_P(SpecFuzzTest, WorkloadSpecMutantsFailCleanlyOrRoundTrip) {
  FuzzGrammar(GetParam(), kWorkloadSpecs, ParseWorkloadSpec,
              [](const WorkloadSpec& spec) {
                const std::string canonical = FormatWorkloadSpec(spec);
                const auto again = ParseWorkloadSpec(canonical);
                ASSERT_TRUE(again.ok()) << canonical << ": "
                                        << again.status().ToString();
                ExpectSameWorkloadSpec(again.value(), spec);
                EXPECT_EQ(FormatWorkloadSpec(again.value()), canonical);
              });
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, SpecFuzzTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace swsample
