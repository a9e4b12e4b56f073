// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Seeded mutation fuzzing of ReadTrace, the SWSTRC1 trace reader behind
// --replay-trace. Mutants of WriteTrace's output for fixed workloads (byte
// flips, truncations, forged count fields and overlong varints) must
// either fail with InvalidArgument or read back as many items as the
// header counts, numbered from 0, that write and read back unchanged. The
// seeds are fixed, so every run checks the same mutants; a failure names
// the seed and the mutant.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "stream/workload.h"
#include "util/rng.h"

namespace swsample {
namespace {

constexpr uint64_t kMutantsPerSeed = 400;
constexpr size_t kHeaderBytes = 16;  // magic + u64 count

/// Workloads with bursts, quiet steps, repeated values and (skew) falling
/// timestamps, so the deltas cover zero, small, large and negative ones.
const char* const kWorkloads[] = {
    "constant@zipf,rate=8,domain=64,alpha=1.2",
    "poisson@uniform,lambda=0.5,domain=1048576",
    "poisson@uniform,lambda=6,domain=64,skew=12",
    "churn,t=24,domain=64",
};

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

uint64_t HeaderCount(const std::string& bytes) {
  uint64_t count = 0;
  for (size_t i = 0; i < 8; ++i) {
    count |= uint64_t{static_cast<uint8_t>(bytes[8 + i])} << (8 * i);
  }
  return count;
}

void ForgeCount(std::string& bytes, uint64_t count) {
  for (size_t i = 0; i < 8; ++i) {
    bytes[8 + i] = static_cast<char>(count >> (8 * i));
  }
}

/// A mutant of `bytes` (a valid trace): one to three edits.
std::string Mutant(Rng& rng, std::string bytes) {
  const uint64_t edits = 1 + rng.UniformIndex(3);
  for (uint64_t e = 0; e < edits; ++e) {
    const size_t at = rng.UniformIndex(bytes.size() + 1);
    switch (rng.UniformIndex(4)) {
      case 0:  // flip a byte, the magic and count included
        if (at < bytes.size()) {
          bytes[at] = static_cast<char>(rng.UniformIndex(256));
        }
        break;
      case 1:  // truncate
        bytes.resize(at);
        break;
      case 2:  // forge the count: near the truth, small, or huge
        if (bytes.size() >= kHeaderBytes) {
          const uint64_t count = HeaderCount(bytes);
          const uint64_t forged[] = {count + 1, count - 1,
                                     rng.UniformIndex(64), UINT64_MAX,
                                     count + rng.UniformIndex(1 << 20)};
          ForgeCount(bytes, forged[rng.UniformIndex(5)]);
        }
        break;
      default:  // an overlong varint: a run of continuation bytes
        if (at >= kHeaderBytes) {
          bytes.insert(at, 8 + rng.UniformIndex(6),
                       static_cast<char>(0x80 | rng.UniformIndex(128)));
        }
        break;
    }
  }
  return bytes;
}

class TraceFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TraceFuzzTest, MutantsFailCleanlyOrRoundTrip) {
  const std::string path = ::testing::TempDir() + "/trace_fuzz_" +
                           std::to_string(GetParam()) + ".trace";
  const std::string again = path + ".again";
  std::vector<std::string> bases;
  for (const char* spec : kWorkloads) {
    const auto items =
        WorkloadGenerator::Create(spec, 31).ValueOrDie()->Take(300);
    ASSERT_TRUE(WriteTrace(path, items).ok()) << spec;
    bases.push_back(ReadBytes(path));
  }
  Rng rng(GetParam());
  uint64_t failures = 0;
  uint64_t successes = 0;
  for (uint64_t m = 0; m < kMutantsPerSeed; ++m) {
    const std::string bytes =
        Mutant(rng, bases[rng.UniformIndex(bases.size())]);
    SCOPED_TRACE("mutant " + std::to_string(m) + " (" +
                 std::to_string(bytes.size()) + " bytes)");
    WriteBytes(path, bytes);
    const auto read = ReadTrace(path);
    if (!read.ok()) {
      ASSERT_EQ(read.status().code(), StatusCode::kInvalidArgument)
          << read.status().ToString();
      ++failures;
      continue;
    }
    ++successes;
    const std::vector<Item>& items = read.value();
    ASSERT_EQ(items.size(), HeaderCount(bytes));
    for (size_t i = 0; i < items.size(); ++i) ASSERT_EQ(items[i].index, i);
    ASSERT_TRUE(WriteTrace(again, items).ok());
    ASSERT_EQ(ReadTrace(again).ValueOrDie(), items);
  }
  // The mutants reach both outcomes.
  EXPECT_GT(successes, kMutantsPerSeed / 20);
  EXPECT_GT(failures, kMutantsPerSeed / 2);
  std::remove(path.c_str());
  std::remove(again.c_str());
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, TraceFuzzTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace swsample
