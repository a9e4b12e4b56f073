// Copyright (c) swsample authors. Licensed under the MIT license.
//
// E19: ingestion front-end micro-benchmarks. Isolates the three stages
// every byte passes through before any sampler sees an Item -- newline
// scanning (SWAR word-at-a-time vs byte-at-a-time), event-line parsing
// (ParseEventSpan with its eight-digit gulp), and the full DriveLines
// pipeline over an in-memory stream (fmemopen) into a null sink -- and
// reports MB/s per stage. The stage numbers bound how fast any end-to-end
// ingestion can go; the drive-buffer row shows how close the assembled
// pipeline gets. The ring rows time the single-sink read-ahead ring
// (stream/text_frontend.h) with no helper threads (ring-serial) and with
// the default helper pool (ring-pool), so the parse pool's speedup has a
// row of its own.
//
// All rows are absolute-throughput micro-measurements, so they are
// recorded with "gated": 0 -- informational in BENCH.json, never scored
// by the CI regression gate.

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "stream/driver.h"
#include "stream/text_frontend.h"
#include "util/bits.h"
#include "util/rng.h"

using namespace swsample;
using namespace swsample::bench;

namespace {

const uint64_t kLines = Scaled(1 << 21, 64);  // ~2M event lines (full mode)

/// Event-line corpus mixing digit widths so the eight-digit gulp, the
/// short-tail loop and the blank-line skip all execute: values alternate
/// between short (1-6 digit) and long (10-13 digit) decimals, timestamps
/// advance in plateaus with occasional bursts, and every 512th line is
/// blank.
std::string MakeCorpus(uint64_t lines, bool timestamped, uint64_t seed) {
  Rng rng(seed);
  std::string out;
  out.reserve(lines * 20);
  Timestamp ts = 0;
  char buf[64];
  for (uint64_t i = 0; i < lines; ++i) {
    if (i % 512 == 511) {
      out += '\n';
      continue;
    }
    const uint64_t value = (i & 1)
                               ? rng.UniformIndex(1000000)
                               : 1000000000000ull + rng.UniformIndex(1 << 30);
    if (timestamped) {
      if (i % 96 == 95) ts += 1 + rng.UniformIndex(16);
      std::snprintf(buf, sizeof(buf), "%lld %llu\n",
                    static_cast<long long>(ts),
                    static_cast<unsigned long long>(value));
    } else {
      std::snprintf(buf, sizeof(buf), "%llu\n",
                    static_cast<unsigned long long>(value));
    }
    out += buf;
  }
  return out;
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void ReportRow(const std::string& name, double mb_per_sec,
               double lines_per_sec) {
  Row({name, F(mb_per_sec, 1), F(lines_per_sec / 1e6, 2), "MB/s|Ml/s"});
  BenchReporter::Global().Report(
      "e19", name,
      {{"gated", 0.0},
       {"mb_per_sec", mb_per_sec},
       {"lines_per_sec", lines_per_sec}});
}

/// Counts lines by scanning for '\n' with `next` (takes [p, end), returns
/// the first hit or end). Returns MB/s over `reps` passes.
template <typename NextFn>
double SplitThroughput(const std::string& corpus, int reps, uint64_t* lines,
                       NextFn&& next) {
  uint64_t count = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    const char* p = corpus.data();
    const char* end = p + corpus.size();
    while (p < end) {
      const char* hit = next(p, end);
      ++count;
      p = hit == end ? end : hit + 1;
    }
  }
  const double secs = Seconds(t0);
  *lines = count / static_cast<uint64_t>(reps);
  return corpus.size() * static_cast<double>(reps) / secs / 1e6;
}

/// Null sink: the cheapest possible consumer, so DriveLines' number is the
/// front-end cost (read + split + parse + batch assembly), not sampler
/// work.
class NullSink final : public StreamSink {
 public:
  void Observe(const Item& item) override { checksum_ += item.value; }
  void ObserveBatch(std::span<const Item> items) override {
    for (const Item& item : items) checksum_ += item.value;
  }
  void AdvanceTime(Timestamp) override {}
  uint64_t MemoryWords() const override { return 1; }
  const char* name() const override { return "null-sink"; }
  uint64_t checksum() const { return checksum_; }

 private:
  uint64_t checksum_ = 0;
};

}  // namespace

int main() {
  Banner("E19: ingestion front-end (split / parse / drive) MB/s",
         "word-at-a-time newline scanning and eight-digit-gulp decimal "
         "parsing keep the text front-end out of the samplers' way");

  const int reps = SmokeMode() ? 2 : 8;
  Row({"stage", "MB/s", "M lines/s", "unit"});

  for (const bool timestamped : {false, true}) {
    const std::string corpus = MakeCorpus(kLines, timestamped, 19);
    const char* tag = timestamped ? "ts" : "val";

    // Stage 1: line splitting, word-at-a-time vs the byte loop memchr
    // stands in for. (DriveLines' scanner also stops at NULs; the
    // corpus has none, so both see identical lines.)
    uint64_t lines_swar = 0;
    const double swar = SplitThroughput(
        corpus, reps, &lines_swar, [](const char* p, const char* end) {
          return FindNewlineOrNul(p, end);
        });
    ReportRow(std::string("split-swar-") + tag, swar,
              swar * 1e6 / corpus.size() * static_cast<double>(lines_swar));
    uint64_t lines_byte = 0;
    const double byte = SplitThroughput(
        corpus, reps, &lines_byte, [](const char* p, const char* end) {
          const void* hit = std::memchr(p, '\n', end - p);
          return hit == nullptr ? end : static_cast<const char*>(hit);
        });
    ReportRow(std::string("split-memchr-") + tag, byte,
              byte * 1e6 / corpus.size() * static_cast<double>(lines_byte));

    // Stage 2: ParseEventSpan over every line (split cost included, so
    // the delta vs stage 1 is the pure parse cost).
    {
      uint64_t checksum = 0;
      uint64_t parsed = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < reps; ++r) {
        const char* p = corpus.data();
        const char* end = p + corpus.size();
        Timestamp last_ts = 0;
        while (p < end) {
          const char* nl = FindNewlineOrNul(p, end);
          uint64_t value = 0;
          Timestamp ts = last_ts;
          const LineParse parse =
              ParseEventSpan(p, nl, timestamped, last_ts, &value, &ts);
          if (parse == LineParse::kOk) {
            checksum += value;
            last_ts = ts;
            ++parsed;
          } else if (parse != LineParse::kBlank) {
            std::fprintf(stderr, "unexpected parse failure\n");
            return 1;
          }
          p = nl == end ? end : nl + 1;
        }
      }
      const double secs = Seconds(t0);
      const double mb = corpus.size() * static_cast<double>(reps) / secs / 1e6;
      ReportRow(std::string("parse-span-") + tag, mb,
                static_cast<double>(parsed) / secs);
      if (checksum == 0) std::fprintf(stderr, "checksum zero?\n");
    }

    // Stage 3: the assembled DriveLines pipeline, reading the corpus from
    // memory, into a null sink.
    {
      NullSink sink;
      StreamDriver::Options options;
      options.batch_size = 16384;
      options.memory_probe_every = 0;
      const StreamDriver driver(options);
      uint64_t items = 0;
      std::FILE* f = fmemopen(const_cast<char*>(corpus.data()), corpus.size(),
                              "r");
      if (f == nullptr) {
        std::fprintf(stderr, "fmemopen failed\n");
        return 1;
      }
      const auto t0 = std::chrono::steady_clock::now();
      auto report = driver.DriveLines(f, "corpus", timestamped, sink);
      const double secs = Seconds(t0);
      std::fclose(f);
      if (!report.ok()) {
        std::fprintf(stderr, "DriveLines: %s\n",
                     report.status().ToString().c_str());
        return 1;
      }
      items = report.value().items;
      ReportRow(std::string("drive-buffer-") + tag,
                corpus.size() / secs / 1e6, static_cast<double>(items) / secs);
    }

    // Stage 4: the single-sink read-ahead ring alone (read, parse, take in
    // order; no batching, no sink), parsed on the calling thread and on
    // the default helper pool. The ratio of the two rows is the parse
    // pool's speedup on this host.
    for (const size_t helpers : {size_t{0}, DefaultParseHelpers()}) {
      std::FILE* f = fmemopen(const_cast<char*>(corpus.data()), corpus.size(),
                              "r");
      if (f == nullptr) {
        std::fprintf(stderr, "fmemopen failed\n");
        return 1;
      }
      uint64_t events = 0;
      uint64_t checksum = 0;
      const auto t0 = std::chrono::steady_clock::now();
      const Status status = ParseLines(
          f, "corpus", timestamped, nullptr,
          [&](std::span<Item> got, StreamIndex) {
            for (const Item& item : got) checksum += item.value;
            events += got.size();
            return Status::Ok();
          },
          helpers);
      const double secs = Seconds(t0);
      std::fclose(f);
      if (!status.ok()) {
        std::fprintf(stderr, "ParseLines: %s\n", status.ToString().c_str());
        return 1;
      }
      if (checksum == 0) std::fprintf(stderr, "checksum zero?\n");
      const std::string name = std::string(helpers == 0 ? "ring-serial-"
                                                        : "ring-pool-") +
                               tag;
      const double mb_per_sec = corpus.size() / secs / 1e6;
      const double lines_per_sec = static_cast<double>(events) / secs;
      Row({name, F(mb_per_sec, 1), F(lines_per_sec / 1e6, 2), "MB/s|Ml/s"});
      BenchReporter::Global().Report(
          "e19", name,
          {{"gated", 0.0},
           {"mb_per_sec", mb_per_sec},
           {"lines_per_sec", lines_per_sec},
           {"helpers", static_cast<double>(helpers)}});
    }
  }

  BenchReporter::Global().WriteJsonIfRequested();
  return 0;
}
