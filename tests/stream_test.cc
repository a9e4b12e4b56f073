// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Unit tests for the stream substrate: the workload generator's draw order
// and distributions, and the drivers' text ingestion (stream/text_frontend.h).

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "stream/driver.h"
#include "stream/sharded_driver.h"
#include "stream/workload.h"
#include "test_sinks.h"
#include "text_ingest.h"
#include "util/rng.h"
#include "workload_steps.h"

namespace swsample {
namespace {

// --- WorkloadGenerator: draw order and distributions ----------------------

/// FNV-1a over each item's value, index and timestamp, 8 little-endian
/// bytes each.
uint64_t Fnv1a(std::span<const Item> items) {
  uint64_t hash = 14695981039346656037ull;
  for (const Item& item : items) {
    for (uint64_t word : {item.value, item.index,
                          static_cast<uint64_t>(item.timestamp)}) {
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (8 * byte)) & 0xff;
        hash *= 1099511628211ull;
      }
    }
  }
  return hash;
}

/// The values of the first `count` items of `spec` at `seed`.
std::vector<uint64_t> Values(std::string_view spec, uint64_t seed,
                             uint64_t count) {
  std::vector<uint64_t> values;
  for (const Item& item :
       WorkloadGenerator::Create(spec, seed).ValueOrDie()->Take(count)) {
    values.push_back(item.value);
  }
  return values;
}

TEST(WorkloadGeneratorTest, StreamsArePinned) {
  // Every seeded test depends on this draw order: a burst size, then one
  // value per item of the burst, all from the one seeded Rng.
  struct Pinned {
    const char* spec;
    uint64_t digest;  // of the first 10,000 items at seed 99
  };
  const Pinned kPinned[] = {
      {"poisson@uniform,lambda=2.5,domain=65536", 0xcd40f02e2a997a0dull},
      // lambda > 30: the normal-approximation branch.
      {"poisson@uniform,lambda=64,domain=1048576", 0x5c0f8cbb00bfff87ull},
      {"poisson@zipf,lambda=1.7,domain=100,alpha=1.1", 0xd187875192643cf2ull},
      {"constant@zipf,rate=4,domain=1000,alpha=1.1", 0xb85a1febbd4d1f2bull},
  };
  for (const Pinned& pinned : kPinned) {
    auto items =
        WorkloadGenerator::Create(pinned.spec, 99).ValueOrDie()->Take(10000);
    EXPECT_EQ(Fnv1a(items), pinned.digest) << pinned.spec;
  }
}

TEST(WorkloadGeneratorTest, ConstantRateStampsConsecutiveItems) {
  auto items = WorkloadGenerator::Create("constant,rate=3,domain=100", 12)
                   .ValueOrDie()
                   ->Take(150);
  for (uint64_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].index, i);
    EXPECT_EQ(items[i].timestamp, static_cast<Timestamp>(i / 3));
    EXPECT_LT(items[i].value, 100u);
  }
}

TEST(WorkloadGeneratorTest, UniformStaysInAndCoversDomain) {
  for (uint64_t v : Values("constant,domain=10", 1, 10000)) EXPECT_LT(v, 10u);
  std::vector<uint64_t> counts(8, 0);
  for (uint64_t v : Values("constant,domain=8", 2, 8000)) ++counts[v];
  for (uint64_t c : counts) EXPECT_GT(c, 800u);
}

TEST(WorkloadGeneratorTest, ZipfSkewFavorsSmallValues) {
  std::vector<uint64_t> counts(100, 0);
  for (uint64_t v : Values("constant@zipf,domain=100,alpha=1.2", 3, 100000)) {
    ++counts[v];
  }
  // Head value must dominate the tail value heavily under alpha=1.2.
  EXPECT_GT(counts[0], 10 * counts[50] / 2);
  EXPECT_GT(counts[0], counts[1]);
}

TEST(WorkloadGeneratorTest, ZipfAlphaZeroIsUniform) {
  std::vector<uint64_t> counts(16, 0);
  for (uint64_t v : Values("constant@zipf,domain=16,alpha=0", 4, 64000)) {
    ++counts[v];
  }
  for (uint64_t c : counts) {
    EXPECT_GT(c, 3000u);
    EXPECT_LT(c, 5000u);
  }
}

TEST(WorkloadGeneratorTest, ZipfFrequencyMatchesTheory) {
  const int trials = 200000;
  uint64_t head = 0;
  for (uint64_t v : Values("constant@zipf,domain=50,alpha=1", 5, trials)) {
    head += (v == 0);
  }
  double harmonic = 0.0;
  for (int i = 1; i <= 50; ++i) harmonic += 1.0 / i;
  EXPECT_NEAR(static_cast<double>(head) / trials, 1.0 / harmonic, 0.01);
}

TEST(WorkloadGeneratorTest, SeqIsRoundRobin) {
  EXPECT_EQ(Values("constant@seq,domain=3", 6, 7),
            (std::vector<uint64_t>{0, 1, 2, 0, 1, 2, 0}));
}

TEST(WorkloadGeneratorTest, PoissonMeanMatchesLambda) {
  // lambda <= 30 takes Knuth's product method, larger lambda the normal
  // approximation.
  const WorkloadSteps small("poisson,lambda=4", 8, 50000);
  EXPECT_NEAR(static_cast<double>(small.items().size()) / 50000, 4.0, 0.1);
  const WorkloadSteps large("poisson,lambda=100", 9, 20000);
  EXPECT_NEAR(static_cast<double>(large.items().size()) / 20000, 100.0, 1.0);
}

TEST(WorkloadGeneratorTest, SparsePoissonLeavesQuietSteps) {
  // Poisson with tiny lambda leaves most steps empty; the clock keeps
  // moving and indices stay contiguous.
  const WorkloadSteps stream("poisson,lambda=0.2,domain=10", 13, 2000);
  for (uint64_t i = 0; i < stream.items().size(); ++i) {
    EXPECT_EQ(stream.items()[i].index, i);
  }
  EXPECT_GT(stream.QuietSteps(), 1000u);  // e^-0.2 ~ 0.82 of steps are empty
}

// --- Both drivers' text front end vs the line-at-a-time reference -------
//
// Both drivers read a file in kTextBlockBytes blocks with partial lines
// carried across block edges. StreamDriver parses the blocks on the
// calling thread, the sharded driver on its workers. Each must agree
// exactly with ReadEvents (tests/text_ingest.h), which reads the same bytes
// one line at a time, driven through Drive: same items, same final sampler
// states bit for bit, same errors with the same line numbers.

class DriverEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/drive_equiv_stream.txt";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& text) {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

  /// Runs the same bytes through DriveFile and the sharded
  /// DriveFileCheckpointed (two shards on two threads) and requires the
  /// outcomes of the reference events driven through Drive, on
  /// same-seeded samplers.
  void ExpectEquivalent(const std::string& text, bool timestamped) {
    WriteFile(text);
    SinkSpec config;
    config.name = "bop-seq-swr";
    config.window_n = 8;
    config.window_t = 8;
    config.k = 4;
    config.seed = 42;
    const auto reference = ReadEvents(text, path_, timestamped);

    auto from_file = MakeSampler(config).ValueOrDie();
    const StreamDriver driver;
    auto file_result = driver.DriveFile(path_, timestamped, *from_file);
    ShardedStreamDriver::Options options;
    options.threads = 2;
    options.chunk_items = 64;
    const ShardedStreamDriver sharded(options);
    auto from_file_shards = CreateShardedSinks(config, 2).ValueOrDie();
    auto sharded_result = sharded.DriveFileCheckpointed(
        path_, timestamped, SinkPointers(from_file_shards), nullptr, nullptr);

    ASSERT_EQ(file_result.ok(), reference.ok());
    ASSERT_EQ(sharded_result.ok(), reference.ok());
    if (!reference.ok()) {
      EXPECT_EQ(file_result.status().ToString(),
                reference.status().ToString());
      EXPECT_EQ(sharded_result.status().ToString(),
                reference.status().ToString());
      return;
    }
    auto from_reference = MakeSampler(config).ValueOrDie();
    const DriveReport want = driver.Drive(reference.value(), *from_reference);
    items_ = file_result.value().items;
    EXPECT_EQ(file_result.value().items, want.items);
    EXPECT_EQ(file_result.value().batches, want.batches);
    EXPECT_EQ(StateBytes(*from_file), StateBytes(*from_reference));

    auto reference_shards = CreateShardedSinks(config, 2).ValueOrDie();
    ASSERT_TRUE(
        sharded.Drive(reference.value(), SinkPointers(reference_shards)).ok());
    EXPECT_EQ(sharded_result.value().total.items, want.items);
    for (size_t s = 0; s < 2; ++s) {
      EXPECT_EQ(StateBytes(*from_file_shards[s].sink),
                StateBytes(*reference_shards[s].sink))
          << "shard " << s;
    }
  }

  std::string path_;
  uint64_t items_ = 0;  // delivered by the last equivalent drives
};

/// Appends "1\n" lines (and one blank line for an odd gap) until `text`
/// is exactly `size` bytes long.
void PadTo(std::string& text, size_t size) {
  while (text.size() + 2 <= size) text += "1\n";
  if (text.size() < size) text += "\n";
}

TEST_F(DriverEquivalenceTest, PlainValues) {
  std::string text;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    text += std::to_string(rng.UniformIndex(1000)) + "\n";
  }
  ExpectEquivalent(text, /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, BlankLinesAndWhitespace) {
  ExpectEquivalent("1\n\n  2\n   \n\t\n\t 3 \n4", /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, TimestampedWithBursts) {
  std::string text;
  Rng rng(13);
  Timestamp ts = 0;
  for (int i = 0; i < 3000; ++i) {
    ts += static_cast<Timestamp>(rng.UniformIndex(3));
    text += std::to_string(ts) + " " + std::to_string(rng.NextU64() % 97) +
            "\n";
  }
  ExpectEquivalent(text, /*timestamped=*/true);
}

TEST_F(DriverEquivalenceTest, MissingTrailingNewline) {
  ExpectEquivalent("5\n6\n7", /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, NulInsideOverlongLineRejectedByBothPaths) {
  // Doubly out-of-grammar garbage: a NUL inside a >254-char line. The
  // length limit counts the whole line, NUL and all, so every path
  // rejects it with the same message and line number.
  ExpectEquivalent(
      "1\n" + (std::string("7") + '\0' + std::string(300, 'x')) + "\n2\n",
      /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, OverlongLineAcrossBlockEdgeSameError) {
  // The over-long line starts right before a block edge, so the drivers
  // find it while carrying the partial line into the next block.
  std::string text;
  PadTo(text, kTextBlockBytes - 10);
  ExpectEquivalent(text + std::string(300, '7') + "\n2\n",
                   /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, LinesStraddleBlockEdges) {
  // Several blocks of input. A block ends kTextBlockBytes after the start
  // of the previous one's carried partial line, so each edge is placed
  // relative to the one before: a value split between its digits, a
  // "\r\n" split between its two bytes, a blank line split before its
  // newline, and a line whose newline is the block's last byte.
  constexpr size_t kBlock = kTextBlockBytes;
  std::string text;
  size_t edge = kBlock;
  PadTo(text, edge - 2);
  text += "98765\n";  // "98" is carried
  edge += kBlock - 2;
  PadTo(text, edge - 4);
  text += "123\r\n";  // '\r' is the block's last byte; "123\r" is carried
  edge += kBlock - 4;
  PadTo(text, edge - 2);
  text += "  \n";  // blank line: two spaces carried
  edge += kBlock - 2;
  PadTo(text, edge - 4);
  text += "456\n";  // ends exactly on the edge: nothing carried
  text += "7\n8";   // no trailing newline
  ASSERT_GT(text.size(), 3 * kBlock);

  uint64_t lines = 0;
  for (size_t pos = 0; pos < text.size();) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    if (text.find_first_not_of(" \r", pos) < nl) ++lines;
    pos = nl + 1;
  }
  ExpectEquivalent(text, /*timestamped=*/false);
  EXPECT_EQ(items_, lines);
}

TEST_F(DriverEquivalenceTest, StrayNulTruncatesLineOnBothPaths) {
  // A NUL ends the parsed part of its line (out-of-grammar input, but
  // every path must still agree).
  ExpectEquivalent(std::string("5\n") + std::string("\0 junk\n", 7) +
                       "6\n" + std::string("7\0 tail\n", 8),
                   /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, MalformedLineSameError) {
  ExpectEquivalent("1\n2\nnope\n4\n", /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, DecreasingTimestampSameError) {
  ExpectEquivalent("1 5\n2 6\n1 7\n", /*timestamped=*/true);
}

TEST_F(DriverEquivalenceTest, OverlongLineSameError) {
  ExpectEquivalent("1\n" + std::string(300, '7') + "\n2\n",
                   /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, MalformedErrorNamesLine) {
  WriteFile("1\n2\nbad line\n");
  SinkSpec config;
  config.name = "bop-seq-single";
  config.window_n = 4;
  config.k = 1;
  config.seed = 1;
  auto sampler = MakeSampler(config).ValueOrDie();
  auto result = StreamDriver().DriveFile(path_, false, *sampler);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(path_ + ":3"), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("malformed event line"),
            std::string::npos);
}

TEST_F(DriverEquivalenceTest, EmptyFileDeliversNothing) {
  WriteFile("");
  SinkSpec config;
  config.name = "bop-seq-single";
  config.window_n = 4;
  config.k = 1;
  config.seed = 1;
  auto sampler = MakeSampler(config).ValueOrDie();
  auto result = StreamDriver().DriveFile(path_, false, *sampler);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().items, 0u);
}

TEST_F(DriverEquivalenceTest, ProgressLeavesSinkStateUnchanged) {
  // Progress fires only at batch boundaries, so a reporting run feeds the
  // sink exactly the batches a silent run does.
  std::string text;
  for (int i = 0; i < 50000; ++i) text += std::to_string(i * 7 % 1009) + "\n";
  WriteFile(text);
  SinkSpec config;
  config.name = "bop-seq-swor";
  config.window_n = 3000;
  config.k = 8;
  config.seed = 9;
  StreamDriver::Options options;
  options.batch_size = 1024;
  const StreamDriver driver(options);
  auto drive = [&](WindowSampler& sampler,
                   const StreamDriver::ProgressFn& progress) {
    std::FILE* f = std::fopen(path_.c_str(), "r");
    EXPECT_NE(f, nullptr);
    auto result = driver.DriveLines(f, path_, false, sampler, nullptr,
                                    nullptr, progress, 10000);
    std::fclose(f);
    return result;
  };
  auto silent = MakeSampler(config).ValueOrDie();
  ASSERT_TRUE(drive(*silent, nullptr).ok());
  auto reporting = MakeSampler(config).ValueOrDie();
  std::vector<uint64_t> calls;
  ASSERT_TRUE(
      drive(*reporting, [&](uint64_t items) { calls.push_back(items); })
          .ok());
  EXPECT_EQ(StateBytes(*silent), StateBytes(*reporting));
  // The first boundary at or after each multiple of 10000.
  EXPECT_EQ(calls, (std::vector<uint64_t>{10240, 20480, 30720, 40960}));
}

TEST(TextFrontEndTest, ReadErrorsFailEveryFileDrive) {
  // A directory opens as a FILE* but every read of it fails: each file
  // entry point must report that instead of ending the stream quietly.
  const std::string dir = ::testing::TempDir() + "/text_front_end_dir";
  std::filesystem::create_directories(dir);
  SinkSpec config;
  config.name = "bop-seq-swor";
  config.window_n = 8;
  config.k = 2;
  config.seed = 5;
  auto sampler = MakeSampler(config).ValueOrDie();
  const StreamDriver driver;
  auto single = driver.DriveFile(dir, false, *sampler);
  ASSERT_FALSE(single.ok());
  EXPECT_NE(single.status().message().find(dir), std::string::npos)
      << single.status().ToString();
  EXPECT_FALSE(
      driver.DriveFileCheckpointed(dir, false, *sampler, nullptr, nullptr)
          .ok());
  auto shards = CreateShardedSinks(config, 2).ValueOrDie();
  ShardedStreamDriver::Options options;
  options.threads = 2;
  auto sharded = ShardedStreamDriver(options).DriveFileCheckpointed(
      dir, false, SinkPointers(shards), nullptr, nullptr);
  ASSERT_FALSE(sharded.ok());
  EXPECT_NE(sharded.status().message().find(dir), std::string::npos)
      << sharded.status().ToString();
  std::filesystem::remove(dir);
}

TEST(TextFrontEndTest, DriveLinesSkipsBlankLines) {
  SinkSpec config;
  config.name = "bop-seq-single";
  config.window_n = 4;
  config.k = 1;
  config.seed = 3;
  auto sampler = MakeSampler(config).ValueOrDie();
  std::FILE* f = TempFileWith("10\n20\n\n30\n");
  ASSERT_NE(f, nullptr);
  auto result = StreamDriver().DriveLines(f, "mem", /*timestamped=*/false,
                                          *sampler);
  std::fclose(f);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().items, 3u);
}

TEST(ParseEventSpanTest, GrammarCorners) {
  uint64_t value = 0;
  Timestamp ts = 0;
  auto parse = [&](const std::string& s, bool timestamped,
                   Timestamp last_ts = 0) {
    return ParseEventSpan(s.data(), s.data() + s.size(), timestamped,
                          last_ts, &value, &ts);
  };
  EXPECT_EQ(parse("42", false), LineParse::kOk);
  EXPECT_EQ(value, 42u);
  EXPECT_EQ(parse("  +7 ", false), LineParse::kOk);
  EXPECT_EQ(value, 7u);
  EXPECT_EQ(parse("", false), LineParse::kBlank);
  EXPECT_EQ(parse(" \t ", false), LineParse::kBlank);
  EXPECT_EQ(parse("x42", false), LineParse::kMalformed);
  EXPECT_EQ(parse("- 1", false), LineParse::kMalformed);
  EXPECT_EQ(parse("5 9", true), LineParse::kOk);
  EXPECT_EQ(ts, 5);
  EXPECT_EQ(value, 9u);
  EXPECT_EQ(parse("5", true), LineParse::kMalformed);
  EXPECT_EQ(parse("3 9", true, /*last_ts=*/4), LineParse::kNonMonotone);
}

}  // namespace
}  // namespace swsample
