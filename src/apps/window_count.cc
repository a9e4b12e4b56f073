// Copyright (c) swsample authors. Licensed under the MIT license.

#include "apps/window_count.h"

#include <algorithm>
#include <utility>

namespace swsample {

Result<std::unique_ptr<WindowCountEstimator>> WindowCountEstimator::Create(
    Mode mode, uint64_t window_n, Timestamp window_t, double count_eps) {
  if (mode == Mode::kSequence && window_n < 1) {
    return Status::InvalidArgument("window-count: window_n must be >= 1");
  }
  if (mode != Mode::kSequence && window_t < 1) {
    return Status::InvalidArgument("window-count: window_t must be >= 1");
  }
  auto est = std::unique_ptr<WindowCountEstimator>(
      new WindowCountEstimator(mode, window_n, window_t));
  if (mode == Mode::kTsHistogram) {
    auto histogram = ExpHistogram::Create(window_t, count_eps);
    if (!histogram.ok()) return histogram.status();
    est->histogram_.emplace(std::move(histogram).ValueOrDie());
  }
  return est;
}

void WindowCountEstimator::Observe(const Item& item) {
  switch (mode_) {
    case Mode::kSequence:
      ++count_;
      break;
    case Mode::kTsHistogram:
      histogram_->Add(item.timestamp);
      break;
    case Mode::kTsExact:
      timestamps_.push_back(item.timestamp);
      AdvanceTime(item.timestamp);
      break;
  }
}

void WindowCountEstimator::ObserveBatch(std::span<const Item> items) {
  switch (mode_) {
    case Mode::kSequence:
      count_ += items.size();
      break;
    case Mode::kTsHistogram:
      histogram_->AddBatch(items);
      break;
    case Mode::kTsExact:
      for (const Item& item : items) timestamps_.push_back(item.timestamp);
      if (!items.empty()) AdvanceTime(items.back().timestamp);
      break;
  }
}

void WindowCountEstimator::AdvanceTime(Timestamp now) {
  switch (mode_) {
    case Mode::kSequence:
      break;
    case Mode::kTsHistogram:
      histogram_->AdvanceTime(now);
      break;
    case Mode::kTsExact:
      while (!timestamps_.empty() && now - timestamps_.front() >= window_t_) {
        timestamps_.pop_front();
      }
      break;
  }
}

EstimateReport WindowCountEstimator::Estimate() {
  EstimateReport report;
  report.metric = "count";
  switch (mode_) {
    case Mode::kSequence:
      report.value = static_cast<double>(std::min(count_, window_n_));
      break;
    case Mode::kTsHistogram:
      report.value = static_cast<double>(histogram_->Estimate());
      break;
    case Mode::kTsExact:
      report.value = static_cast<double>(timestamps_.size());
      break;
  }
  report.window_size = report.value;
  return report;
}

void WindowCountEstimator::SaveState(BinaryWriter* w) const {
  switch (mode_) {
    case Mode::kSequence:
      w->PutU64(count_);
      break;
    case Mode::kTsHistogram:
      histogram_->Save(w);
      break;
    case Mode::kTsExact:
      w->PutU64(timestamps_.size());
      for (Timestamp ts : timestamps_) w->PutI64(ts);
      break;
  }
}

bool WindowCountEstimator::LoadState(BinaryReader* r) {
  switch (mode_) {
    case Mode::kSequence:
      return r->GetU64(&count_);
    case Mode::kTsHistogram:
      return histogram_->Load(r);
    case Mode::kTsExact: {
      uint64_t size = 0;
      if (!r->GetU64(&size) || size > r->remaining() / 8) return false;
      timestamps_.clear();
      for (uint64_t i = 0; i < size; ++i) {
        Timestamp ts = 0;
        // Non-negative (AdvanceTime's expiry subtraction must not
        // overflow on a corrupt blob) and non-decreasing.
        if (!r->GetI64(&ts) || ts < 0 ||
            (!timestamps_.empty() && ts < timestamps_.back())) {
          return false;
        }
        timestamps_.push_back(ts);
      }
      return true;
    }
  }
  return false;
}

uint64_t WindowCountEstimator::MemoryWords() const {
  switch (mode_) {
    case Mode::kSequence:
      return 2;
    case Mode::kTsHistogram:
      return histogram_->MemoryWords();
    case Mode::kTsExact:
      return timestamps_.size() + 2;
  }
  return 0;
}

}  // namespace swsample
