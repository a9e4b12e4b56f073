// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Unit tests for the stream substrate: value generators, arrival processes
// and the composed SyntheticStream.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stream/arrival.h"
#include "stream/driver.h"
#include "stream/sharded_driver.h"
#include "stream/stream_gen.h"
#include "stream/value_gen.h"
#include "test_sinks.h"
#include "util/rng.h"
#include "util/serial.h"

namespace swsample {
namespace {

TEST(UniformValuesTest, RejectsEmptyDomain) {
  EXPECT_FALSE(UniformValues::Create(0).ok());
}

TEST(UniformValuesTest, StaysInDomain) {
  auto gen = UniformValues::Create(10).ValueOrDie();
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(gen->Next(rng), 10u);
}

TEST(UniformValuesTest, CoversDomain) {
  auto gen = UniformValues::Create(8).ValueOrDie();
  Rng rng(2);
  std::vector<uint64_t> counts(8, 0);
  for (int i = 0; i < 8000; ++i) ++counts[gen->Next(rng)];
  for (uint64_t c : counts) EXPECT_GT(c, 800u);
}

TEST(ZipfValuesTest, RejectsBadParams) {
  EXPECT_FALSE(ZipfValues::Create(0, 1.0).ok());
  EXPECT_FALSE(ZipfValues::Create(10, -1.0).ok());
}

TEST(ZipfValuesTest, SkewFavorsSmallValues) {
  auto gen = ZipfValues::Create(100, 1.2).ValueOrDie();
  Rng rng(3);
  std::vector<uint64_t> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[gen->Next(rng)];
  // Head value must dominate the tail value heavily under alpha=1.2.
  EXPECT_GT(counts[0], 10 * counts[50] / 2);
  EXPECT_GT(counts[0], counts[1]);
}

TEST(ZipfValuesTest, AlphaZeroIsUniform) {
  auto gen = ZipfValues::Create(16, 0.0).ValueOrDie();
  Rng rng(4);
  std::vector<uint64_t> counts(16, 0);
  for (int i = 0; i < 64000; ++i) ++counts[gen->Next(rng)];
  for (uint64_t c : counts) {
    EXPECT_GT(c, 3000u);
    EXPECT_LT(c, 5000u);
  }
}

TEST(ZipfValuesTest, FrequencyMatchesTheory) {
  const double alpha = 1.0;
  auto gen = ZipfValues::Create(50, alpha).ValueOrDie();
  Rng rng(5);
  const int trials = 200000;
  uint64_t head = 0;
  for (int i = 0; i < trials; ++i) head += (gen->Next(rng) == 0);
  double harmonic = 0.0;
  for (int i = 1; i <= 50; ++i) harmonic += 1.0 / i;
  EXPECT_NEAR(static_cast<double>(head) / trials, 1.0 / harmonic, 0.01);
}

TEST(SequentialValuesTest, RoundRobin) {
  auto gen = SequentialValues::Create(3).ValueOrDie();
  Rng rng(6);
  std::vector<uint64_t> seen;
  for (int i = 0; i < 7; ++i) seen.push_back(gen->Next(rng));
  EXPECT_EQ(seen, (std::vector<uint64_t>{0, 1, 2, 0, 1, 2, 0}));
}

TEST(ConstantRateArrivalsTest, ExactCount) {
  ConstantRateArrivals arrivals(5);
  Rng rng(7);
  for (Timestamp t = 0; t < 100; ++t) EXPECT_EQ(arrivals.CountAt(t, rng), 5u);
}

TEST(PoissonBurstArrivalsTest, RejectsBadLambda) {
  EXPECT_FALSE(PoissonBurstArrivals::Create(0.0).ok());
  EXPECT_FALSE(PoissonBurstArrivals::Create(-3.0).ok());
}

TEST(PoissonBurstArrivalsTest, MeanMatchesLambdaSmall) {
  auto arrivals = PoissonBurstArrivals::Create(4.0).ValueOrDie();
  Rng rng(8);
  uint64_t total = 0;
  const int steps = 50000;
  for (int t = 0; t < steps; ++t) total += arrivals->CountAt(t, rng);
  EXPECT_NEAR(static_cast<double>(total) / steps, 4.0, 0.1);
}

TEST(PoissonBurstArrivalsTest, MeanMatchesLambdaLarge) {
  auto arrivals = PoissonBurstArrivals::Create(100.0).ValueOrDie();
  Rng rng(9);
  uint64_t total = 0;
  const int steps = 20000;
  for (int t = 0; t < steps; ++t) total += arrivals->CountAt(t, rng);
  EXPECT_NEAR(static_cast<double>(total) / steps, 100.0, 1.0);
}

TEST(DoublingBurstArrivalsTest, RejectsBadParams) {
  EXPECT_FALSE(DoublingBurstArrivals::Create(0, 10).ok());
  EXPECT_FALSE(DoublingBurstArrivals::Create(31, 10).ok());
  EXPECT_FALSE(DoublingBurstArrivals::Create(5, 0).ok());
}

TEST(DoublingBurstArrivalsTest, DoublingShape) {
  auto arrivals =
      DoublingBurstArrivals::Create(/*t0=*/4, /*max_burst=*/1 << 20)
          .ValueOrDie();
  Rng rng(10);
  // 2^(2*4 - t) for t <= 8, then 1.
  EXPECT_EQ(arrivals->CountAt(0, rng), 256u);
  EXPECT_EQ(arrivals->CountAt(1, rng), 128u);
  EXPECT_EQ(arrivals->CountAt(8, rng), 1u);
  EXPECT_EQ(arrivals->CountAt(9, rng), 1u);
  EXPECT_EQ(arrivals->CountAt(100, rng), 1u);
}

TEST(DoublingBurstArrivalsTest, CapsAtMaxBurst) {
  auto arrivals =
      DoublingBurstArrivals::Create(/*t0=*/10, /*max_burst=*/64).ValueOrDie();
  Rng rng(11);
  EXPECT_EQ(arrivals->CountAt(0, rng), 64u);   // 2^20 capped
  EXPECT_EQ(arrivals->CountAt(14, rng), 64u);  // 2^6 == 64
  EXPECT_EQ(arrivals->CountAt(15, rng), 32u);
}

TEST(SyntheticStreamTest, IndicesAndTimestampsConsistent) {
  auto stream = SyntheticStream(
      UniformValues::Create(100).ValueOrDie(),
      std::make_unique<ConstantRateArrivals>(3), /*seed=*/12);
  StreamIndex expect_index = 0;
  for (Timestamp t = 0; t < 50; ++t) {
    const auto& burst = stream.Step();
    EXPECT_EQ(stream.now(), t);
    ASSERT_EQ(burst.size(), 3u);
    for (const Item& item : burst) {
      EXPECT_EQ(item.index, expect_index++);
      EXPECT_EQ(item.timestamp, t);
      EXPECT_LT(item.value, 100u);
    }
  }
  EXPECT_EQ(stream.total_items(), 150u);
}

TEST(SyntheticStreamTest, EmptyStepsAreLegal) {
  // Poisson with tiny lambda produces many empty steps; the stream must
  // keep the clock moving and indices contiguous.
  auto stream = SyntheticStream(UniformValues::Create(10).ValueOrDie(),
                                std::move(PoissonBurstArrivals::Create(0.2))
                                    .ValueOrDie(),
                                /*seed=*/13);
  StreamIndex expect_index = 0;
  int empty_steps = 0;
  for (Timestamp t = 0; t < 2000; ++t) {
    const auto& burst = stream.Step();
    if (burst.empty()) ++empty_steps;
    for (const Item& item : burst) EXPECT_EQ(item.index, expect_index++);
  }
  EXPECT_GT(empty_steps, 1000);  // e^-0.2 ~ 0.82 of steps are empty
}

// --- DriveFile (block reads) vs DriveBuffer (one in-memory block) --------
//
// Both go through EventReader: a file is read in kBlockBytes refills with
// partial lines carried across block edges, a buffer is scanned in place.
// The two must agree exactly: same items, same final sampler state bit
// for bit, same errors with the same line numbers.

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

  static std::string SamplerStateBytes(WindowSampler& sampler) {
    BinaryWriter w;
    sampler.SaveState(&w);
    return w.Release();
  }

  /// Runs the same bytes through DriveFile and DriveBuffer on
  /// same-seeded samplers and requires identical outcomes.
  void ExpectEquivalent(const std::string& text, bool timestamped) {
    WriteFile(text);
    SinkSpec config;
    config.name = "bop-seq-swr";
    config.window_n = 8;
    config.window_t = 8;
    config.k = 4;
    config.seed = 42;
    auto from_file = MakeSampler(config).ValueOrDie();
    auto from_buffer = MakeSampler(config).ValueOrDie();
    StreamDriver driver;

    auto file_result = driver.DriveFile(path_, timestamped, *from_file);
    auto buffer_result =
        driver.DriveBuffer(text, path_, timestamped, *from_buffer);

    ASSERT_EQ(file_result.ok(), buffer_result.ok());
    if (!file_result.ok()) {
      EXPECT_EQ(file_result.status().message(),
                buffer_result.status().message());
      return;
    }
    items_ = file_result.value().items;
    EXPECT_EQ(file_result.value().items, buffer_result.value().items);
    EXPECT_EQ(file_result.value().batches, buffer_result.value().batches);
    EXPECT_EQ(SamplerStateBytes(*from_file), SamplerStateBytes(*from_buffer));
  }

  std::string path_;
  uint64_t items_ = 0;  // delivered by the last equivalent pair of drives
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
  // length limit counts the whole line, NUL and all, so both paths reject
  // it with the same message and line number.
  ExpectEquivalent(
      "1\n" + (std::string("7") + '\0' + std::string(300, 'x')) + "\n2\n",
      /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, OverlongLineAcrossBlockEdgeSameError) {
  // The over-long line starts right before a block edge, so the file path
  // finds it while carrying the partial line into the next block.
  std::string text;
  PadTo(text, EventReader::kBlockBytes - 10);
  ExpectEquivalent(text + std::string(300, '7') + "\n2\n",
                   /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, LinesStraddleBlockEdges) {
  // Several blocks of input. A file block ends where the previous one's
  // carried partial line ends, so each edge is placed relative to the one
  // before: a value split between its digits, a "\r\n" split between its
  // two bytes, a blank line split before its newline, and a line whose
  // newline is the block's last byte.
  constexpr size_t kBlock = EventReader::kBlockBytes;
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
  // both paths must still agree).
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
  EXPECT_EQ(SamplerStateBytes(*silent), SamplerStateBytes(*reporting));
  // The first boundary at or after each multiple of 10000.
  EXPECT_EQ(calls, (std::vector<uint64_t>{10240, 20480, 30720, 40960}));
}

TEST(EventReaderTest, ReadErrorsFailEveryFileDrive) {
  // A directory opens as a FILE* but every read of it fails: each file
  // entry point must report that instead of ending the stream quietly.
  const std::string dir = ::testing::TempDir() + "/event_reader_dir";
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

TEST(DriveBufferTest, ParsesDirectlyFromMemory) {
  SinkSpec config;
  config.name = "bop-seq-single";
  config.window_n = 4;
  config.k = 1;
  config.seed = 3;
  auto sampler = MakeSampler(config).ValueOrDie();
  auto result = StreamDriver().DriveBuffer("10\n20\n\n30\n", "mem",
                                           /*timestamped=*/false, *sampler);
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
