// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Seeded mutation fuzzing of the event-line grammar. Mutants of the seed
// corpus in tests/data/fuzz/event_lines (byte flips, inserted runs of
// digits, signs, spaces, '\r', '\0' and '\n', splices from other corpus
// entries, deletions) go through both drivers' DriveLines on a temporary
// file: StreamDriver parses the blocks on the calling thread, the sharded
// driver on its worker threads. With and without timestamps, both must
// deliver the events of the line-at-a-time reference reading (ReadEvents,
// tests/text_ingest.h), which shares no block code with them, or fail
// with its message. One mutant in four starts from corpus entries that
// stay valid when repeated, joined past several parse blocks, so that
// seams and carried lines see mutated bytes too. The seeds are fixed, so every run checks the same
// mutants; a failure names the seed and the mutant.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "stream/driver.h"
#include "stream/sharded_driver.h"
#include "text_ingest.h"
#include "util/rng.h"

namespace swsample {
namespace {

namespace fs = std::filesystem;

constexpr char kSource[] = "fuzz.txt";
constexpr uint64_t kMutantsPerSeed = 120;
constexpr uint64_t kChunk = 64;

/// The bytes mutations insert.
const std::string kAlphabet("0123456789+- \r\n\0", 16);

std::vector<std::string> LoadCorpus() {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(
           fs::path(SWSAMPLE_TEST_DATA_DIR) / "fuzz" / "event_lines")) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> corpus;
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  }
  return corpus;
}

/// A mutant of a random corpus entry, or, one time in four, of entries
/// from `repeatable` joined until the text spans several parse blocks.
/// Those bases parse cleanly, and get few edits, so the grown mutants
/// fail at scattered places, often in a late block, or not at all.
std::string Mutant(Rng& rng, const std::vector<std::string>& corpus,
                   const std::vector<std::string>& repeatable) {
  const bool big = !repeatable.empty() && rng.UniformIndex(4) == 0;
  std::string text;
  if (big) {
    while (text.size() < 3 * kTextBlockBytes) {
      text += repeatable[rng.UniformIndex(repeatable.size())] + "\n";
    }
  } else {
    text = corpus[rng.UniformIndex(corpus.size())];
  }
  const uint64_t edits = 1 + rng.UniformIndex(big ? 4 : 8);
  for (uint64_t e = 0; e < edits; ++e) {
    const size_t at = rng.UniformIndex(text.size() + 1);
    const char c = kAlphabet[rng.UniformIndex(kAlphabet.size())];
    switch (rng.UniformIndex(4)) {
      case 0:  // flip
        if (at < text.size()) text[at] = c;
        break;
      case 1:  // insert a run
        text.insert(at, 1 + rng.UniformIndex(4), c);
        break;
      case 2: {  // splice from another entry
        const std::string& from = corpus[rng.UniformIndex(corpus.size())];
        const size_t begin = rng.UniformIndex(from.size());
        text.insert(at, from, begin,
                    1 + rng.UniformIndex(from.size() - begin));
        break;
      }
      default:  // delete
        if (at < text.size()) text.erase(at, 1 + rng.UniformIndex(3));
        break;
    }
  }
  return text;
}

/// What one drive delivered, in stream order, or how it failed.
struct Outcome {
  Status status;
  std::vector<Item> events;
};

Outcome Reference(const std::string& text, bool timestamped) {
  auto events = ReadEvents(text, kSource, timestamped);
  if (!events.ok()) return Outcome{events.status(), {}};
  return Outcome{Status::Ok(), std::move(events.value())};
}

Outcome DriveSingle(const std::string& text, bool timestamped) {
  RecordingSink sink;
  StreamDriver::Options options;
  options.batch_size = kChunk;
  std::FILE* f = TempFileWith(text);
  if (f == nullptr) return Outcome{Status::InvalidArgument("tmpfile"), {}};
  auto report =
      StreamDriver(options).DriveLines(f, kSource, timestamped, sink);
  std::fclose(f);
  return Outcome{report.status(), sink.items()};
}

/// Two shards in kChunks mode on two threads; chunks alternate between
/// the shards, so the stream is their runs interleaved, renumbered.
Outcome DriveSharded(const std::string& text, bool timestamped) {
  RecordingSink shards[2];
  StreamSink* const pointers[] = {&shards[0], &shards[1]};
  ShardedStreamDriver::Options options;
  options.threads = 2;
  options.chunk_items = kChunk;
  options.partition = ShardPartition::kChunks;
  std::FILE* f = TempFileWith(text);
  if (f == nullptr) return Outcome{Status::InvalidArgument("tmpfile"), {}};
  auto report = ShardedStreamDriver(options).DriveLines(
      f, kSource, timestamped, pointers);
  std::fclose(f);
  Outcome out{report.status(), {}};
  for (size_t run = 0;; ++run) {
    const auto& batches = shards[run % 2].batches();
    if (run / 2 >= batches.size()) break;
    for (const Item& item : batches[run / 2]) {
      out.events.push_back(
          Item{item.value, out.events.size(), item.timestamp});
    }
  }
  return out;
}

class EventLineFuzzTest : public ::testing::TestWithParam<uint64_t> {};

/// The corpus entries that still parse when repeated back to back.
std::vector<std::string> Repeatable(const std::vector<std::string>& corpus,
                                    bool timestamped) {
  std::vector<std::string> out;
  for (const std::string& entry : corpus) {
    if (ReadEvents(entry + "\n" + entry, kSource, timestamped).ok()) {
      out.push_back(entry);
    }
  }
  return out;
}

TEST_P(EventLineFuzzTest, SingleAndShardedFrontEndsAgree) {
  const std::vector<std::string> corpus = LoadCorpus();
  ASSERT_GE(corpus.size(), 8u);
  Rng rng(GetParam());
  uint64_t failures = 0;
  uint64_t successes = 0;
  for (bool timestamped : {false, true}) {
    const std::vector<std::string> repeatable =
        Repeatable(corpus, timestamped);
    ASSERT_FALSE(repeatable.empty());
    for (uint64_t m = 0; m < kMutantsPerSeed; ++m) {
      const std::string text = Mutant(rng, corpus, repeatable);
      SCOPED_TRACE("mutant " + std::to_string(m) + " (" +
                   std::to_string(text.size()) + " bytes), " +
                   (timestamped ? "timestamped" : "sequence"));
      const Outcome want = Reference(text, timestamped);
      const Outcome single = DriveSingle(text, timestamped);
      const Outcome sharded = DriveSharded(text, timestamped);
      ASSERT_EQ(single.status.ToString(), want.status.ToString());
      ASSERT_EQ(sharded.status.ToString(), want.status.ToString());
      if (want.status.ok()) {
        ASSERT_EQ(single.events, want.events);
        ASSERT_EQ(sharded.events, want.events);
        ++successes;
      } else {
        ++failures;
      }
    }
  }
  // The mutants reach both outcomes.
  EXPECT_GT(successes, kMutantsPerSeed / 2);
  EXPECT_GT(failures, kMutantsPerSeed / 2);
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, EventLineFuzzTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace swsample
