// Copyright (c) swsample authors. Licensed under the MIT license.
//
// The text front end (stream/text_frontend.h) against the line-at-a-time
// reference reading. The sharded DriveLines reads blocks cut at newlines,
// parses them on the worker threads and puts the events back in order
// before routing them; the reference reads the same bytes one line at a
// time (ReadEvents, tests/text_ingest.h) and routes the parsed span
// through Drive. For both partition modes, with and without timestamps,
// at 1-4 threads: every shard must receive the same runs and end in the
// same state, and every checkpoint must land at the same position with
// the same manifest and shard bytes, also after a resume from inside a
// block. At and next to block seams, the sharded and the single-sink
// DriveLines must both fail with the reference's error. This binary also
// runs under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "apps/sink_spec.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "stream/sharded_driver.h"
#include "text_ingest.h"
#include "util/rng.h"

namespace swsample {
namespace {

namespace fs = std::filesystem;

constexpr size_t kBlock = kTextBlockBytes;
constexpr uint64_t kShards = 4;
constexpr uint64_t kChunk = 96;
constexpr uint64_t kEvery = 1237;  // checkpoint cadence, rarely block-aligned
constexpr size_t kMaxLine = 48;    // longest line Line() builds, '\n' included
constexpr char kSource[] = "events.txt";

/// Where DriveLines starts its blocks over `text`: each block covers up to
/// kBlock bytes from the previous cut and is cut after its last newline.
std::vector<size_t> BlockStarts(std::string_view text) {
  std::vector<size_t> starts = {0};
  while (starts.back() + kBlock < text.size()) {
    const size_t nl = text.rfind('\n', starts.back() + kBlock - 1);
    if (nl == std::string_view::npos || nl < starts.back()) break;
    starts.push_back(nl + 1);
  }
  return starts;
}

/// [begin, end) of the line holding byte `offset`, newline excluded.
std::pair<size_t, size_t> LineAt(std::string_view text, size_t offset) {
  const size_t nl =
      offset == 0 ? std::string_view::npos : text.rfind('\n', offset - 1);
  const size_t end = text.find('\n', offset);
  return {nl == std::string_view::npos ? 0 : nl + 1,
          end == std::string_view::npos ? text.size() : end};
}

/// The fields of one event line: "<value>" or "<timestamp> <value>", with
/// an occasional sign, tab separator or clock step.
std::string Fields(Rng& rng, bool timestamped, Timestamp* clock) {
  std::string out;
  if (timestamped) {
    if (rng.UniformIndex(3) == 0) {
      *clock += static_cast<Timestamp>(rng.UniformIndex(3));
    }
    out += std::to_string(*clock);
    out += rng.UniformIndex(4) == 0 ? "\t" : " ";
  }
  if (rng.UniformIndex(8) == 0) out += '+';
  out += std::to_string(
      rng.UniformIndex(uint64_t{1} << (4 * (1 + rng.UniformIndex(8)))));
  return out;
}

/// One random line, '\n' included: blank and whitespace-only lines, and
/// events with leading whitespace, trailing junk, a '\r' before the
/// newline or a NUL that ends the parsed part.
std::string Line(Rng& rng, bool timestamped, Timestamp* clock) {
  switch (rng.UniformIndex(16)) {
    case 0:
      return "\n";
    case 1:
      return " \t \n";
    case 2:
      return "\r\n";
    default:
      break;
  }
  std::string line;
  if (rng.UniformIndex(6) == 0) line += rng.UniformIndex(2) ? "  " : "\t";
  line += Fields(rng, timestamped, clock);
  switch (rng.UniformIndex(8)) {
    case 0:
      line += " trailing";
      break;
    case 1:
      line += '\r';
      break;
    case 2:
      line += std::string("\0junk", 5);
      break;
    default:
      break;
  }
  return line + "\n";
}

/// About `bytes` of valid event text built from Line(). Every other block
/// edge gets a 254-character event line that ends exactly on it (every
/// other one of those with a '\r' before its newline).
std::string EventText(uint64_t seed, bool timestamped, size_t bytes) {
  Rng rng(seed);
  std::string text;
  Timestamp clock = 1000;
  size_t block_start = 0;
  bool pad_edge = true;
  bool with_cr = false;
  while (text.size() < bytes) {
    const size_t edge = block_start + kBlock;
    if (pad_edge && edge - text.size() < 256 + kMaxLine) {
      text.append(edge - text.size() - 256, ' ');
      text += '\n';
      std::string line = Fields(rng, timestamped, &clock);
      if (with_cr) line += '\r';
      line.insert(0, kMaxEventLineChars - line.size(), ' ');
      text += line + "\n";
      block_start = edge;
      pad_edge = false;
      with_cr = !with_cr;
      continue;
    }
    const std::string line = Line(rng, timestamped, &clock);
    if (text.size() + line.size() > edge) {
      block_start = text.size();  // the block is cut before this line
      pad_edge = true;
    }
    text += line;
  }
  return text;
}

SinkSpec SpecFor(bool timestamped) {
  SinkSpec spec;
  spec.name = timestamped ? "bop-ts-swor" : "bop-seq-swor";
  spec.window_n = kShards * kChunk * 4;
  spec.window_t = 40;
  spec.k = 6;
  spec.seed = 11;
  return spec;
}

ShardedStreamDriver::Options OptionsFor(ShardPartition partition,
                                        uint64_t threads) {
  ShardedStreamDriver::Options options;
  options.threads = threads;
  options.chunk_items = kChunk;
  options.queue_chunks = 2;  // parse jobs and chunks meet backpressure
  options.partition = partition;
  return options;
}

/// Shard sinks behind recording wrappers.
struct Shards {
  explicit Shards(std::vector<StreamSink*> inner) {
    for (StreamSink* sink : inner) {
      recorders.push_back(std::make_unique<RecordingSink>(sink));
      pointers.push_back(recorders.back().get());
    }
  }
  std::vector<std::unique_ptr<RecordingSink>> recorders;
  std::vector<StreamSink*> pointers;
};

/// Fresh replicas of `spec` for kShards shards, recorded.
struct FreshShards : Shards {
  explicit FreshShards(const SinkSpec& spec)
      : FreshShards(CreateShardedSinks(spec, kShards).ValueOrDie()) {}
  explicit FreshShards(std::vector<Sink> sinks)
      : Shards(SinkPointers(sinks)), replicas(std::move(sinks)) {}
  std::vector<Sink> replicas;
};

/// What a checkpoint wrote, captured right after its commit (the workers
/// are still quiesced then).
struct Captured {
  CheckpointManifest manifest;
  std::vector<std::string> shard_bytes;
};

/// A writer into `dir` every `every` events that captures each commit.
std::unique_ptr<CheckpointWriter> CapturingWriter(
    const std::string& dir, uint64_t every,
    std::vector<SinkSerializer> serializers, uint64_t start_items,
    const Shards& shards, std::vector<Captured>* out) {
  fs::remove_all(dir);
  CheckpointPolicy policy;
  policy.dir = dir;
  policy.every_items = every;
  auto writer = std::make_unique<CheckpointWriter>(
      policy, std::move(serializers), start_items);
  writer->set_after_write([dir, &shards, out](uint64_t) {
    Captured captured;
    captured.manifest = LoadCheckpoint(dir).ValueOrDie().position;
    for (const auto& recorder : shards.recorders) {
      captured.shard_bytes.push_back(StateBytes(*recorder));
    }
    out->push_back(std::move(captured));
  });
  return writer;
}

/// Where routing the first `at` of `events` leaves the producer: what a
/// checkpoint taken there must record.
CheckpointManifest ModelManifest(std::span<const Item> events, uint64_t at,
                                 ShardPartition partition) {
  CheckpointManifest m;
  m.items = at;
  m.last_ts = events[at - 1].timestamp;
  m.chunk_items = kChunk;
  m.partition = static_cast<uint64_t>(partition);
  m.shard_items.assign(kShards, 0);
  if (partition == ShardPartition::kChunks) {
    const uint64_t full = at / kChunk;
    for (uint64_t c = 0; c < full; ++c) m.shard_items[c % kShards] += kChunk;
    m.pending = {std::vector<Item>(events.begin() + full * kChunk,
                                   events.begin() + at)};
    m.next_chunk_shard = static_cast<uint32_t>(full % kShards);
    m.saw_items = full > 0;
    return m;
  }
  m.pending.resize(kShards);
  for (const Item& event : events.first(at)) {
    const uint64_t shard = ShardOfKey(event.value, kShards);
    m.pending[shard].push_back(event);
    if (m.pending[shard].size() == kChunk) {
      m.shard_items[shard] += kChunk;
      m.pending[shard].clear();
      m.saw_items = true;
    }
  }
  return m;
}

void ExpectSameManifest(const CheckpointManifest& got,
                        const CheckpointManifest& want) {
  EXPECT_EQ(got.items, want.items);
  EXPECT_EQ(got.last_ts, want.last_ts);
  EXPECT_EQ(got.saw_items, want.saw_items);
  EXPECT_EQ(got.next_chunk_shard, want.next_chunk_shard);
  EXPECT_EQ(got.chunk_items, want.chunk_items);
  EXPECT_EQ(got.partition, want.partition);
  EXPECT_EQ(got.shard_items, want.shard_items);
  EXPECT_EQ(got.pending, want.pending);
}

/// Each shard's state after the first `shard_items[s]` items of the runs
/// the reference delivered to it, replayed run by run into fresh replicas.
std::vector<std::string> ReplayedStates(
    const SinkSpec& spec, const Shards& reference,
    const std::vector<uint64_t>& shard_items) {
  std::vector<Sink> fresh = CreateShardedSinks(spec, kShards).ValueOrDie();
  std::vector<std::string> states;
  for (uint64_t s = 0; s < kShards; ++s) {
    uint64_t fed = 0;
    for (const auto& batch : reference.recorders[s]->batches()) {
      if (fed >= shard_items[s]) break;
      fresh[s].sink->ObserveBatch(batch);
      fed += batch.size();
    }
    EXPECT_EQ(fed, shard_items[s]);
    states.push_back(StateBytes(*fresh[s].sink));
  }
  return states;
}

/// The checkpoints of one run, at start + every, start + 2 * every, ...
void ExpectModelCheckpoints(const std::vector<Captured>& captured,
                            std::span<const Item> events, uint64_t start,
                            uint64_t every, ShardPartition partition,
                            const SinkSpec& spec, const Shards& reference) {
  ASSERT_EQ(captured.size(), (events.size() - start) / every);
  for (size_t c = 0; c < captured.size(); ++c) {
    SCOPED_TRACE("checkpoint " + std::to_string(c));
    const CheckpointManifest want =
        ModelManifest(events, start + (c + 1) * every, partition);
    ExpectSameManifest(captured[c].manifest, want);
    EXPECT_EQ(captured[c].shard_bytes,
              ReplayedStates(spec, reference, want.shard_items));
  }
}

Result<ShardedDriveReport> DriveText(
    const ShardedStreamDriver& driver, const std::string& text,
    bool timestamped, std::span<StreamSink* const> shards,
    CheckpointWriter* writer = nullptr,
    const CheckpointManifest* resume = nullptr) {
  std::FILE* f = TempFileWith(text);
  if (f == nullptr) return Status::InvalidArgument("tmpfile failed");
  auto result =
      driver.DriveLines(f, kSource, timestamped, shards, writer, resume);
  std::fclose(f);
  return result;
}

using FrontEndParam = std::tuple<ShardPartition, bool, uint64_t>;

class FrontEndTest : public ::testing::TestWithParam<FrontEndParam> {
 protected:
  void SetUp() override {
    std::tie(partition_, timestamped_, threads_) = GetParam();
    text_ = EventText(17 + threads_, timestamped_, 12 * kBlock);
    const std::vector<size_t> starts = BlockStarts(text_);
    ASSERT_GE(starts.size(), 12u);
    // Some block ends with a 254-character line.
    ASSERT_TRUE(std::any_of(starts.begin() + 1, starts.end(), [&](size_t s) {
      return LineAt(text_, s - 1).first + kMaxEventLineChars == s - 1;
    }));
    events_ = ReadEvents(text_, kSource, timestamped_).ValueOrDie();
    spec_ = SpecFor(timestamped_);
    driver_ = std::make_unique<ShardedStreamDriver>(
        OptionsFor(partition_, threads_));
    reference_ = std::make_unique<FreshShards>(spec_);
    ASSERT_TRUE(driver_->Drive(events_, reference_->pointers).ok());
    dir_ = ::testing::TempDir() + "/frontend_" +
           std::to_string(static_cast<int>(partition_)) +
           (timestamped_ ? "_ts_" : "_seq_") + std::to_string(threads_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    fs::remove_all(dir_ + "_resumed");
  }

  /// After the shard saw its first `skip_items` items, it must receive
  /// the reference's remaining runs and clock syncs and end in its state.
  void ExpectReferenceDeliveries(const Shards& got,
                                 const std::vector<uint64_t>& skip_items) {
    for (uint64_t s = 0; s < kShards; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      const RecordingSink& want = *reference_->recorders[s];
      ASSERT_EQ(skip_items[s] % kChunk, 0u);
      const size_t skip_runs = skip_items[s] / kChunk;
      ASSERT_LE(skip_runs, want.batches().size());
      const std::vector<std::vector<Item>> rest(
          want.batches().begin() + skip_runs, want.batches().end());
      EXPECT_EQ(got.recorders[s]->batches(), rest);
      EXPECT_EQ(got.recorders[s]->advances(), want.advances());
      EXPECT_EQ(StateBytes(*got.recorders[s]), StateBytes(want));
    }
  }

  ShardPartition partition_ = ShardPartition::kChunks;
  bool timestamped_ = false;
  uint64_t threads_ = 1;
  std::string text_;
  std::vector<Item> events_;
  SinkSpec spec_;
  std::unique_ptr<ShardedStreamDriver> driver_;
  std::unique_ptr<FreshShards> reference_;
  std::string dir_;
};

TEST_P(FrontEndTest, MatchesSingleReaderPath) {
  FreshShards parallel(spec_);
  std::vector<Captured> captured;
  auto writer = CapturingWriter(
      dir_, kEvery, MakeSinkSerializers(spec_, kShards).ValueOrDie(), 0,
      parallel, &captured);
  auto report = DriveText(*driver_, text_, timestamped_, parallel.pointers,
                          writer.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().total.items, events_.size());
  ExpectReferenceDeliveries(parallel, std::vector<uint64_t>(kShards, 0));
  ExpectModelCheckpoints(captured, events_, 0, kEvery, partition_, spec_,
                         *reference_);
}

TEST_P(FrontEndTest, ResumesInsideABlock) {
  // One checkpoint, at an event that is neither first nor last in its
  // block.
  const uint64_t at = events_.size() / 2 + 5;
  const std::vector<size_t> starts = BlockStarts(text_);
  for (size_t start : starts) {
    const uint64_t before =
        ReadEvents(std::string_view(text_).substr(0, start), kSource,
                   timestamped_)
            .ValueOrDie()
            .size();
    ASSERT_NE(before, at);
    ASSERT_NE(before, at - 1);
  }
  {
    FreshShards first(spec_);
    std::vector<Captured> captured;
    auto writer = CapturingWriter(
        dir_, at, MakeSinkSerializers(spec_, kShards).ValueOrDie(), 0, first,
        &captured);
    ASSERT_TRUE(
        DriveText(*driver_, text_, timestamped_, first.pointers, writer.get())
            .ok());
    ASSERT_EQ(captured.size(), 1u);
  }
  ResumedCheckpoint resumed = LoadCheckpoint(dir_).ValueOrDie();
  ASSERT_EQ(resumed.position.items, at);
  Shards second(resumed.sinks);
  std::vector<Captured> captured;
  auto writer = CapturingWriter(dir_ + "_resumed", kEvery,
                                SerializersFor(resumed), at, second,
                                &captured);
  auto report = DriveText(*driver_, text_, timestamped_, second.pointers,
                          writer.get(), &resumed.position);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectReferenceDeliveries(second, resumed.position.shard_items);
  ExpectModelCheckpoints(captured, events_, at, kEvery, partition_, spec_,
                         *reference_);
}

INSTANTIATE_TEST_SUITE_P(
    PartitionsTimestampsThreads, FrontEndTest,
    ::testing::Combine(::testing::Values(ShardPartition::kChunks,
                                         ShardPartition::kKeyHash),
                       ::testing::Bool(), ::testing::Values(1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<FrontEndParam>& info) {
      return std::string(std::get<0>(info.param) == ShardPartition::kChunks
                             ? "Chunks"
                             : "KeyHash") +
             (std::get<1>(info.param) ? "Timestamped" : "Sequence") +
             std::to_string(std::get<2>(info.param)) + "Threads";
    });

// --- Errors at and next to block seams ------------------------------------

/// The first line at or after byte `offset` at least `min_len` long.
std::pair<size_t, size_t> LineFrom(std::string_view text, size_t offset,
                                   size_t min_len) {
  for (auto line = LineAt(text, offset);;
       line = LineAt(text, line.second + 1)) {
    if (line.second - line.first >= min_len) return line;
  }
}

/// The last line ending before byte `offset` at least `min_len` long.
std::pair<size_t, size_t> LineBefore(std::string_view text, size_t offset,
                                     size_t min_len) {
  for (auto line = LineAt(text, offset - 1);;
       line = LineAt(text, line.first - 1)) {
    if (line.second - line.first >= min_len) return line;
  }
}

/// `text` with the line [line.first, line.second) replaced by `with`
/// padded with spaces to the line's length (or longer when `with` is).
std::string Replace(std::string text, std::pair<size_t, size_t> line,
                    std::string with) {
  const size_t len = line.second - line.first;
  if (with.size() < len) with.append(len - with.size(), ' ');
  return text.replace(line.first, len, with);
}

/// Both drivers must fail on `text` exactly as the reference reading
/// does: StreamDriver, and the sharded driver for both partition modes at
/// 1-4 threads. `resume` carries the skip count and handoff clock; each
/// driver's geometry checks are filled in here.
void ExpectSameError(const std::string& text, bool timestamped,
                     const CheckpointManifest* resume = nullptr) {
  const auto want = ReadEvents(text, kSource, timestamped, resume);
  ASSERT_FALSE(want.ok()) << "the reference read succeeded";
  {
    CheckpointManifest manifest;
    if (resume != nullptr) {
      manifest = *resume;
      manifest.shard_items = {resume->items};
    }
    RecordingSink sink;
    std::FILE* f = TempFileWith(text);
    ASSERT_NE(f, nullptr);
    auto got = StreamDriver().DriveLines(
        f, kSource, timestamped, sink, nullptr,
        resume == nullptr ? nullptr : &manifest);
    std::fclose(f);
    ASSERT_FALSE(got.ok()) << "single sink";
    EXPECT_EQ(got.status().ToString(), want.status().ToString())
        << "single sink";
  }
  for (ShardPartition partition :
       {ShardPartition::kChunks, ShardPartition::kKeyHash}) {
    CheckpointManifest manifest;
    if (resume != nullptr) {
      manifest = *resume;
      manifest.chunk_items = kChunk;
      manifest.partition = static_cast<uint64_t>(partition);
      manifest.shard_items.assign(kShards, 0);
      manifest.pending.assign(
          partition == ShardPartition::kKeyHash ? kShards : 1, {});
    }
    for (uint64_t threads = 1; threads <= 4; ++threads) {
      std::vector<RecordingSink> sinks(kShards);
      std::vector<StreamSink*> pointers;
      for (RecordingSink& sink : sinks) pointers.push_back(&sink);
      const ShardedStreamDriver driver(OptionsFor(partition, threads));
      auto got = DriveText(driver, text, timestamped, pointers, nullptr,
                           resume == nullptr ? nullptr : &manifest);
      ASSERT_FALSE(got.ok()) << threads << " threads";
      EXPECT_EQ(got.status().ToString(), want.status().ToString())
          << threads << " threads";
    }
  }
}

class SeamErrorTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    timestamped_ = GetParam();
    base_ = EventText(5, timestamped_, 6 * kBlock);
    starts_ = BlockStarts(base_);
    ASSERT_GE(starts_.size(), 6u);
  }

  bool timestamped_ = false;
  std::string base_;
  std::vector<size_t> starts_;
};

TEST_P(SeamErrorTest, MalformedLinesAtAndNextToSeams) {
  for (size_t k = 1; k <= 3; ++k) {
    SCOPED_TRACE("seam " + std::to_string(k));
    ExpectSameError(Replace(base_, LineFrom(base_, starts_[k], 1), "x"),
                    timestamped_);
    ExpectSameError(Replace(base_, LineBefore(base_, starts_[k], 1), "x"),
                    timestamped_);
    ExpectSameError(
        Replace(base_, LineFrom(base_, starts_[k] + 40, 1), "-"),
        timestamped_);
  }
  // In the last block, whose last line has no newline.
  ExpectSameError(base_ + "x12", timestamped_);
  ExpectSameError(base_ + std::string(300, '7'), timestamped_);
}

TEST_P(SeamErrorTest, OverlongLinesAtAndAcrossSeams) {
  const std::string longer(kMaxEventLineChars + 1, '4');
  for (size_t k = 1; k <= 3; ++k) {
    SCOPED_TRACE("seam " + std::to_string(k));
    const size_t edge = starts_[k - 1] + kBlock;
    // Starting the block.
    ExpectSameError(Replace(base_, LineFrom(base_, starts_[k], 0), longer),
                    timestamped_);
    // Carried across the edge as a short partial line, failing in the
    // next block.
    ExpectSameError(Replace(base_, LineAt(base_, edge - 100), longer),
                    timestamped_);
    // Carried partial line already over the limit at the edge.
    ExpectSameError(
        Replace(base_, LineAt(base_, edge - 300), std::string(1000, '4')),
        timestamped_);
    // Just before the seam.
    ExpectSameError(Replace(base_, LineBefore(base_, starts_[k], 0), longer),
                    timestamped_);
  }
}

TEST_P(SeamErrorTest, EarlierOfTwoBadBlocksWins) {
  const std::string late =
      Replace(base_, LineFrom(base_, starts_[4] + 10, 1), "x");
  ExpectSameError(Replace(late, LineFrom(late, starts_[1] + 10, 1), "x"),
                  timestamped_);
  ExpectSameError(
      Replace(late, LineFrom(late, starts_[2] + 10, 0),
              std::string(kMaxEventLineChars + 1, '1')),
      timestamped_);
  // Adjacent blocks: the end of block 1 and the start of block 2.
  const std::string next = Replace(base_, LineFrom(base_, starts_[2], 1), "x");
  ExpectSameError(Replace(next, LineBefore(next, starts_[2], 1), "+"),
                  timestamped_);
}

TEST_P(SeamErrorTest, CheckpointsBeforeAnErrorStillLand) {
  // The failing line ends block 4 and the one checkpoint falls between the
  // block's first event and it: the events before the failing line are
  // routed first, so that checkpoint is written as without the error.
  const auto bad = LineBefore(base_, starts_[5], 1);
  const std::string text = Replace(base_, bad, "x");
  const std::vector<Item> events =
      ReadEvents(std::string_view(text).substr(0, bad.first), kSource,
                 timestamped_)
          .ValueOrDie();
  const uint64_t block_start =
      ReadEvents(std::string_view(text).substr(0, starts_[4]), kSource,
                 timestamped_)
          .ValueOrDie()
          .size();
  const uint64_t every = block_start + (events.size() - block_start) / 2;
  ASSERT_GT(every, block_start);
  const SinkSpec spec = SpecFor(timestamped_);
  for (ShardPartition partition :
       {ShardPartition::kChunks, ShardPartition::kKeyHash}) {
    const ShardedStreamDriver driver(OptionsFor(partition, 3));
    FreshShards reference(spec);
    ASSERT_TRUE(driver.Drive(events, reference.pointers).ok());
    FreshShards parallel(spec);
    std::vector<Captured> captured;
    const std::string dir = ::testing::TempDir() + "/frontend_error_ckpt";
    auto writer = CapturingWriter(
        dir, every, MakeSinkSerializers(spec, kShards).ValueOrDie(), 0,
        parallel, &captured);
    auto got = DriveText(driver, text, timestamped_, parallel.pointers,
                         writer.get());
    EXPECT_EQ(got.status().ToString(),
              ReadEvents(text, kSource, timestamped_).status().ToString());
    ExpectModelCheckpoints(captured, events, 0, every, partition, spec,
                           reference);
    fs::remove_all(dir);
  }
}

TEST_P(SeamErrorTest, ReplayEndingBeforeTheCheckpoint) {
  const size_t events =
      ReadEvents(base_, kSource, timestamped_).ValueOrDie().size();
  CheckpointManifest resume;
  resume.items = events + 1;
  ExpectSameError(base_, timestamped_, &resume);
}

INSTANTIATE_TEST_SUITE_P(Modes, SeamErrorTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Timestamped" : "Sequence";
                         });

/// Timestamped text whose clock starts at 1000: "0 1" is a decrease
/// wherever it stands.
class TimestampSeamTest : public SeamErrorTest {};

TEST_P(TimestampSeamTest, DecreasesAtAndAcrossSeams) {
  for (size_t k = 1; k <= 3; ++k) {
    SCOPED_TRACE("seam " + std::to_string(k));
    // The block's first event is below the last one of the block before:
    // only the seam check sees it.
    const auto first = LineFrom(base_, starts_[k], 3);
    ExpectSameError(Replace(base_, first, "0 1"), true);
    // The block's second event, next to the seam.
    ExpectSameError(
        Replace(base_, LineFrom(base_, first.second + 1, 3), "0 1"), true);
    // The last event before the seam.
    ExpectSameError(Replace(base_, LineBefore(base_, starts_[k], 3), "0 1"),
                    true);
  }
}

TEST_P(TimestampSeamTest, HandoffMismatchInsideABlock) {
  const std::vector<Item> events =
      ReadEvents(base_, kSource, true).ValueOrDie();
  // The last event of the first block, the first of the second, and
  // events inside blocks.
  const uint64_t first_block =
      ReadEvents(std::string_view(base_).substr(0, starts_[1]), kSource, true)
          .ValueOrDie()
          .size();
  for (uint64_t at : {first_block, first_block + 1, uint64_t{1},
                      uint64_t{events.size() / 3}, uint64_t{events.size()}}) {
    CheckpointManifest resume;
    resume.items = at;
    resume.last_ts = events[at - 1].timestamp + 1;
    ExpectSameError(base_, true, &resume);
  }
}

INSTANTIATE_TEST_SUITE_P(Timestamped, TimestampSeamTest,
                         ::testing::Values(true));

}  // namespace
}  // namespace swsample
