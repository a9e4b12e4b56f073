// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Test helpers over generated workloads (stream/workload.h): spec builders
// for callers whose parameters are numbers, and step-by-step loops.
// A WorkloadGenerator yields one flat item sequence; timestamp-window
// tests walk time one step at a time, feeding each step's burst and then
// querying the sink. WorkloadSteps collects every item stamped below a
// horizon and hands the items back one timestamp step at a time, quiet
// steps included.

#ifndef SWSAMPLE_TESTS_WORKLOAD_STEPS_H_
#define SWSAMPLE_TESTS_WORKLOAD_STEPS_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "stream/workload.h"

namespace swsample {

/// `poisson@uniform,lambda=<lambda>,domain=<domain>`, for callers whose
/// lambda is a parameter.
inline WorkloadSpec PoissonUniformSpec(double lambda, uint64_t domain) {
  WorkloadSpec spec;
  spec.arrivals = WorkloadArrivals::kPoisson;
  spec.lambda = lambda;
  spec.domain = domain;
  return spec;
}

/// `constant@zipf,rate=1,domain=<domain>,alpha=<alpha>`: item i is
/// {zipf value, i, i}.
inline WorkloadSpec ZipfPerStepSpec(uint64_t domain, double alpha) {
  WorkloadSpec spec;
  spec.values = WorkloadValues::kZipf;
  spec.rate = 1;
  spec.domain = domain;
  spec.alpha = alpha;
  return spec;
}

/// Every item a workload emits with a timestamp below `horizon`, served
/// one step at a time. Requires a spec without `skew` (timestamps must be
/// non-decreasing).
class WorkloadSteps {
 public:
  WorkloadSteps(std::string_view spec, uint64_t seed, Timestamp horizon)
      : WorkloadSteps(ParseWorkloadSpec(spec).ValueOrDie(), seed, horizon) {}

  /// Generates one item at a time until one reaches `horizon`, and drops
  /// that last item.
  WorkloadSteps(const WorkloadSpec& spec, uint64_t seed, Timestamp horizon)
      : horizon_(horizon) {
    auto generator = WorkloadGenerator::Create(spec, seed).ValueOrDie();
    for (Item item = generator->Take(1)[0]; item.timestamp < horizon;
         item = generator->Take(1)[0]) {
      items_.push_back(item);
    }
  }

  /// The burst stamped with the next timestamp: 0 on the first call, then
  /// 1, 2, ... An empty span is a quiet step.
  std::span<const Item> Step() {
    ++now_;
    const size_t begin = next_;
    while (next_ < items_.size() && items_[next_].timestamp == now_) ++next_;
    return std::span<const Item>(items_).subspan(begin, next_ - begin);
  }

  /// Every collected item, in stream order.
  const std::vector<Item>& items() const { return items_; }

  /// Timestamps below the horizon at which no item arrives.
  uint64_t QuietSteps() const {
    uint64_t busy = 0;
    for (size_t i = 0; i < items_.size(); ++i) {
      busy += i == 0 || items_[i].timestamp != items_[i - 1].timestamp;
    }
    return static_cast<uint64_t>(horizon_) - busy;
  }

 private:
  std::vector<Item> items_;
  Timestamp horizon_;
  Timestamp now_ = -1;
  size_t next_ = 0;
};

}  // namespace swsample

#endif  // SWSAMPLE_TESTS_WORKLOAD_STEPS_H_
