// Copyright (c) swsample authors. Licensed under the MIT license.

#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <utility>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kPass: return "pass";
    case Layer::kDriver: return "driver";
    case Layer::kCore: return "core";
    case Layer::kApps: return "apps";
    case Layer::kKeyed: return "keyed";
    case Layer::kSerialize: return "checkpoint.serialize";
    case Layer::kQuery: return "query";
    case Layer::kCount: break;
  }
  return "?";
}

TraceLog::SpanId TraceLog::Open(uint32_t lane, Layer layer, SpanId parent) {
  std::vector<Span>& spans = lanes_[lane];
  spans.push_back({layer, parent, NowNs(), 0});
  return (static_cast<uint64_t>(lane) << 32) | (spans.size() - 1);
}

uint64_t TraceLog::size() const {
  uint64_t n = 0;
  for (const auto& lane : lanes_) n += lane.size();
  return n;
}

std::vector<TraceLog::LayerTimes> TraceLog::Summarize() const {
  // Child intervals grouped by parent, so each parent's covered time is
  // the length of the union of its children's intervals.
  std::vector<std::tuple<SpanId, int64_t, int64_t>> children;
  for (const auto& lane : lanes_) {
    for (const Span& span : lane) {
      if (span.parent != kNoParent) {
        children.emplace_back(span.parent, span.start_ns, span.end_ns);
      }
    }
  }
  std::sort(children.begin(), children.end());
  std::vector<std::pair<SpanId, int64_t>> covered;  // sorted by parent
  for (size_t i = 0; i < children.size();) {
    const SpanId parent = std::get<0>(children[i]);
    int64_t sum = 0;
    int64_t run_start = std::get<1>(children[i]);
    int64_t run_end = std::get<2>(children[i]);
    for (++i; i < children.size() && std::get<0>(children[i]) == parent;
         ++i) {
      const auto [p, start, end] = children[i];
      if (start > run_end) {
        sum += run_end - run_start;
        run_start = start;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    sum += run_end - run_start;
    covered.emplace_back(parent, sum);
  }

  std::vector<LayerTimes> out(static_cast<size_t>(Layer::kCount));
  for (size_t l = 0; l < lanes_.size(); ++l) {
    for (size_t i = 0; i < lanes_[l].size(); ++i) {
      const Span& span = lanes_[l][i];
      const double duration = (span.end_ns - span.start_ns) * 1e-9;
      const SpanId id = (static_cast<uint64_t>(l) << 32) | i;
      const auto it = std::lower_bound(
          covered.begin(), covered.end(), std::make_pair(id, INT64_MIN));
      const int64_t child_ns =
          it != covered.end() && it->first == id ? it->second : 0;
      LayerTimes& times = out[static_cast<size_t>(span.layer)];
      times.total_s += duration;
      times.self_s += duration - child_ns * 1e-9;
      times.durations_s.push_back(duration);
    }
  }
  return out;
}

bool TraceLog::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "lane,index,layer,parent_lane,parent_index,start_ns,end_ns\n");
  for (size_t l = 0; l < lanes_.size(); ++l) {
    for (size_t i = 0; i < lanes_[l].size(); ++i) {
      const Span& span = lanes_[l][i];
      const bool root = span.parent == kNoParent;
      std::fprintf(f, "%zu,%zu,%s,%lld,%lld,%lld,%lld\n", l, i,
                   LayerName(span.layer),
                   root ? -1LL : static_cast<long long>(span.parent >> 32),
                   root ? -1LL
                        : static_cast<long long>(span.parent & 0xffffffffULL),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

swsample::SinkSerializer TracedSerializer(swsample::SinkSerializer inner,
                                          TraceLog& log, uint32_t lane,
                                          const TraceLog::SpanId* parent) {
  return [inner = std::move(inner), &log, lane,
          parent](swsample::StreamSink& sink)
             -> swsample::Result<std::string> {
    auto* traced = dynamic_cast<TracedSink*>(&sink);
    const int64_t start = NowNs();
    auto blob = inner(traced != nullptr ? traced->inner() : sink);
    log.Record(lane, Layer::kSerialize, *parent, start, NowNs());
    return blob;
  };
}

}  // namespace perfbench
