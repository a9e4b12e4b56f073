// Copyright (c) swsample authors. Licensed under the MIT license.

#include "apps/sink_spec.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>

#include "apps/entropy.h"
#include "apps/freq_moments.h"
#include "apps/payload_substrate.h"
#include "apps/quantiles.h"
#include "apps/triangles.h"
#include "apps/window_count.h"
#include "baseline/bounded_priority_sampler.h"
#include "baseline/chain_sampler.h"
#include "baseline/exact_window.h"
#include "baseline/oversampler.h"
#include "baseline/priority_sampler.h"
#include "core/checkpoint.h"
#include "core/seq_swor.h"
#include "core/seq_swr.h"
#include "core/ts_single.h"
#include "core/ts_swor.h"
#include "core/ts_swr.h"
#include "util/rng.h"
#include "util/serial.h"

namespace swsample {

// --- The spec grammar ---------------------------------------------------

namespace {

/// Parses a full unsigned decimal token; false on garbage or overflow.
bool ParseU64Token(std::string_view token, uint64_t* out) {
  if (token.empty()) return false;
  std::string buf(token);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

/// Parses a full floating-point token; false on garbage.
bool ParseDoubleToken(std::string_view token, double* out) {
  if (token.empty()) return false;
  std::string buf(token);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

Status BadSpec(std::string_view text, const std::string& why) {
  return Status::InvalidArgument("sink spec \"" + std::string(text) +
                                 "\": " + why);
}

/// Renders a double with enough digits to round-trip, trimming the
/// trailing zeros "%.17g" would keep for simple values like 0.5.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  double back = 0.0;
  if (ParseDoubleToken(buf, &back) && back == v) {
    // Try shorter renderings first for readable canonical strings.
    for (int prec = 1; prec <= 16; ++prec) {
      char shorter[64];
      std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
      if (ParseDoubleToken(shorter, &back) && back == v) {
        return shorter;
      }
    }
  }
  return buf;
}

/// Parses `window:weight[+window:weight]...` into bias levels.
bool ParseBiasLevels(std::string_view value, std::vector<BiasLevel>* out) {
  out->clear();
  while (!value.empty()) {
    const size_t plus = value.find('+');
    std::string_view level_text =
        plus == std::string_view::npos ? value : value.substr(0, plus);
    value = plus == std::string_view::npos ? std::string_view()
                                           : value.substr(plus + 1);
    const size_t colon = level_text.find(':');
    if (colon == std::string_view::npos) return false;
    BiasLevel level{};
    if (!ParseU64Token(level_text.substr(0, colon), &level.window) ||
        !ParseDoubleToken(level_text.substr(colon + 1), &level.weight)) {
      return false;
    }
    out->push_back(level);
  }
  return !out->empty();
}

}  // namespace

Result<SinkSpec> ParseSinkSpec(std::string_view text) {
  SinkSpec spec;
  std::string_view rest = text;
  const size_t comma = rest.find(',');
  std::string_view head =
      comma == std::string_view::npos ? rest : rest.substr(0, comma);
  rest = comma == std::string_view::npos ? std::string_view()
                                         : rest.substr(comma + 1);
  const size_t at = head.find('@');
  if (at == std::string_view::npos) {
    spec.name = std::string(head);
  } else {
    spec.name = std::string(head.substr(0, at));
    spec.substrate = std::string(head.substr(at + 1));
    if (spec.substrate.empty()) {
      return BadSpec(text, "empty substrate after '@'");
    }
  }
  auto kind = SinkKindOf(spec.name);
  if (!kind.ok()) return kind.status();
  if (kind.value() == SinkKind::kSampler && !spec.substrate.empty()) {
    return BadSpec(text, "samplers take no '@substrate'");
  }

  while (!rest.empty()) {
    const size_t next = rest.find(',');
    std::string_view pair =
        next == std::string_view::npos ? rest : rest.substr(0, next);
    rest = next == std::string_view::npos ? std::string_view()
                                          : rest.substr(next + 1);
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return BadSpec(text, "expected key=value, got \"" + std::string(pair) +
                               "\"");
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    uint64_t u64 = 0;
    double f64 = 0.0;
    bool ok = true;
    if (key == "n") {
      ok = ParseU64Token(value, &spec.window_n);
    } else if (key == "t") {
      ok = ParseU64Token(value, &u64);
      spec.window_t = static_cast<Timestamp>(u64);
    } else if (key == "k") {
      ok = ParseU64Token(value, &spec.k);
    } else if (key == "r") {
      ok = ParseU64Token(value, &spec.r);
    } else if (key == "seed") {
      ok = ParseU64Token(value, &spec.seed);
    } else if (key == "moment") {
      ok = ParseU64Token(value, &u64) && u64 <= UINT32_MAX;
      spec.moment = static_cast<uint32_t>(u64);
    } else if (key == "vertices") {
      ok = ParseU64Token(value, &u64) && u64 <= UINT32_MAX;
      spec.num_vertices = static_cast<uint32_t>(u64);
    } else if (key == "eps") {
      ok = ParseDoubleToken(value, &f64);
      spec.count_eps = f64;
    } else if (key == "q") {
      ok = ParseDoubleToken(value, &f64);
      spec.q = f64;
    } else if (key == "oversample") {
      ok = ParseU64Token(value, &spec.oversample_factor);
    } else if (key == "wr") {
      ok = ParseU64Token(value, &u64) && u64 <= 1;
      spec.with_replacement = u64 != 0;
    } else if (key == "bias") {
      ok = ParseBiasLevels(value, &spec.bias_levels);
    } else {
      return BadSpec(text, "unknown key \"" + std::string(key) +
                               "\"; recognized: n, t, k, r, seed, moment, "
                               "vertices, eps, q, oversample, wr, bias");
    }
    if (!ok) {
      return BadSpec(text, "invalid value \"" + std::string(value) +
                               "\" for key \"" + std::string(key) + "\"");
    }
  }
  return spec;
}

std::string FormatSinkSpec(const SinkSpec& spec) {
  const SinkSpec defaults;
  std::string out = spec.name;
  if (!spec.substrate.empty()) {
    out += "@";
    out += spec.substrate;
  }
  char buf[64];
  auto put_u64 = [&](const char* key, uint64_t v) {
    std::snprintf(buf, sizeof buf, ",%s=%" PRIu64, key, v);
    out += buf;
  };
  if (spec.window_n != defaults.window_n) put_u64("n", spec.window_n);
  if (spec.window_t != defaults.window_t) {
    put_u64("t", static_cast<uint64_t>(spec.window_t));
  }
  if (spec.k != defaults.k) put_u64("k", spec.k);
  if (spec.r != defaults.r) put_u64("r", spec.r);
  if (spec.seed != defaults.seed) put_u64("seed", spec.seed);
  if (spec.moment != defaults.moment) put_u64("moment", spec.moment);
  if (spec.num_vertices != defaults.num_vertices) {
    put_u64("vertices", spec.num_vertices);
  }
  if (spec.count_eps != defaults.count_eps) {
    out += ",eps=" + FormatDouble(spec.count_eps);
  }
  if (spec.q != defaults.q) out += ",q=" + FormatDouble(spec.q);
  if (spec.oversample_factor != defaults.oversample_factor) {
    put_u64("oversample", spec.oversample_factor);
  }
  if (spec.with_replacement != defaults.with_replacement) {
    put_u64("wr", spec.with_replacement ? 1 : 0);
  }
  if (!spec.bias_levels.empty()) {
    out += ",bias=";
    for (size_t i = 0; i < spec.bias_levels.size(); ++i) {
      if (i > 0) out += "+";
      std::snprintf(buf, sizeof buf, "%" PRIu64 ":",
                    spec.bias_levels[i].window);
      out += buf;
      out += FormatDouble(spec.bias_levels[i].weight);
    }
  }
  return out;
}


// --- The sink table -----------------------------------------------------

namespace {

/// A constructor bound to everything but the seed.
using SinkMaker = std::function<Result<Sink>(uint64_t seed)>;

struct Entry;

/// Sampler rows: constructs the sampler a validated `spec` describes, with
/// `seed` in place of spec.seed.
using MakeFn = Result<Sink> (*)(const SinkSpec& spec, uint64_t seed);

/// Estimator rows: binds a validated `spec` over its resolved substrate
/// row into a maker, resolving every derived substrate spec once.
using BindFn = Result<SinkMaker> (*)(const SinkSpec& spec,
                                     const Entry& substrate);

/// One row of the table: the public description plus its maker.
struct Entry {
  SinkInfo info;
  MakeFn make;  ///< samplers only
  BindFn bind;  ///< estimators only
};

/// Wraps a constructed sampler or estimator into a Sink with its view.
template <typename T>
Result<Sink> AsSink(Result<std::unique_ptr<T>> made) {
  if (!made.ok()) return made.status();
  Sink out;
  if constexpr (std::is_base_of_v<WindowSampler, T>) {
    out.sampler = made.value().get();
  } else {
    out.estimator = made.value().get();
  }
  out.sink = std::move(made).ValueOrDie();
  return out;
}

/// Moves the sampler out of a sampler Sink as an owning typed pointer.
std::unique_ptr<WindowSampler> TakeSampler(Sink sink) {
  sink.sink.release();
  return std::unique_ptr<WindowSampler>(sink.sampler);
}

/// The Section 2.1 single-sample procedure: a k=1 with-replacement unit
/// exposed under its own name. Forwards the batched fast path.
class SeqSingleSampler final : public WindowSampler {
 public:
  explicit SeqSingleSampler(std::unique_ptr<SequenceSwrSampler> inner)
      : inner_(std::move(inner)) {}

  void Observe(const Item& item) override { inner_->Observe(item); }
  void ObserveBatch(std::span<const Item> items) override {
    inner_->ObserveBatch(items);
  }
  void AdvanceTime(Timestamp now) override { inner_->AdvanceTime(now); }
  std::vector<Item> Sample() override { return inner_->Sample(); }
  uint64_t MemoryWords() const override { return inner_->MemoryWords(); }
  uint64_t RetainedBytes() const override { return inner_->RetainedBytes(); }
  uint64_t k() const override { return 1; }
  const char* name() const override { return "bop-seq-single"; }
  bool mergeable() const override { return true; }
  Result<SamplerSnapshot> Snapshot() override { return inner_->Snapshot(); }
  bool persistable() const override { return true; }
  void SaveState(BinaryWriter* w) const override { inner_->SaveState(w); }
  bool LoadState(BinaryReader* r) override { return inner_->LoadState(r); }

 private:
  std::unique_ptr<SequenceSwrSampler> inner_;
};

/// The payload-capable samplers and the substrate family each builds: the
/// k-sample with-replacement names alias the single-sample schemes because
/// Theorems 2.1/3.9 build them as k independent copies.
struct PayloadName {
  const char* name;
  SubstrateKind kind;
};
constexpr PayloadName kPayloadNames[] = {
    {"bop-seq-single", SubstrateKind::kSeqUnits},
    {"bop-seq-swr", SubstrateKind::kSeqUnits},
    {"bop-ts-single", SubstrateKind::kTsUnits},
    {"bop-ts-swr", SubstrateKind::kTsUnits},
    {"exact-seq", SubstrateKind::kExactSeq},
    {"exact-ts", SubstrateKind::kExactTs},
};

const PayloadName* FindPayloadName(std::string_view name) {
  for (const PayloadName& payload : kPayloadNames) {
    if (name == payload.name) return &payload;
  }
  return nullptr;
}

PayloadSubstrateParams PayloadParams(const SinkSpec& spec, SubstrateKind kind,
                                     uint64_t seed) {
  PayloadSubstrateParams params;
  params.kind = kind;
  params.window_n = spec.window_n;
  params.window_t = spec.window_t;
  params.r = spec.r;
  params.count_eps = spec.count_eps;
  params.seed = seed;
  return params;
}

/// Binds a payload estimator: `make(params, spec)` builds it over the
/// substrate family the row resolved.
template <Result<Sink> (*Make)(const PayloadSubstrateParams&,
                               const SinkSpec&)>
Result<SinkMaker> BindPayload(const SinkSpec& spec, const Entry& substrate) {
  const SubstrateKind kind = FindPayloadName(substrate.info.name)->kind;
  return SinkMaker([spec, kind](uint64_t seed) {
    return Make(PayloadParams(spec, kind, seed), spec);
  });
}

Result<Sink> MakeFk(const PayloadSubstrateParams& params,
                    const SinkSpec& spec) {
  return AsSink(FkEstimator::Create(params, spec.moment));
}

Result<Sink> MakeEntropy(const PayloadSubstrateParams& params,
                         const SinkSpec&) {
  return AsSink(EntropyEstimator::Create(params));
}

Result<Sink> MakeTriangles(const PayloadSubstrateParams& params,
                           const SinkSpec& spec) {
  return AsSink(TriangleEstimator::Create(params, spec.num_vertices));
}

Result<SinkMaker> BindQuantile(const SinkSpec& spec, const Entry& substrate) {
  // A single-sample substrate cannot honor a DKW sample size r > 1, and
  // silently degrading the rank guarantee would betray the estimator's
  // name — require the caller to opt into r = 1 explicitly.
  if (substrate.info.single_sample && spec.r != 1) {
    return Status::InvalidArgument(
        std::string("dkw-quantile: substrate ") + substrate.info.name +
        " maintains a single sample; set config.r = 1 (the rank guarantee"
        " then degenerates to a uniform window position)");
  }
  // The substrate draws k = r, without replacement where it offers the
  // choice: quantiles want distinct ranks.
  SinkSpec sample;
  sample.name = substrate.info.name;
  sample.window_n = spec.window_n;
  sample.window_t = spec.window_t;
  sample.k = spec.r;
  sample.oversample_factor = spec.oversample_factor;
  sample.with_replacement = false;
  return SinkMaker([sample, make = substrate.make,
                    q = spec.q](uint64_t seed) -> Result<Sink> {
    auto sampler = make(sample, seed);
    if (!sampler.ok()) return sampler.status();
    return AsSink(QuantileEstimator::Create(
        TakeSampler(std::move(sampler).ValueOrDie()), q));
  });
}

Result<SinkMaker> BindBiasedMean(const SinkSpec& spec,
                                 const Entry& substrate) {
  std::vector<BiasLevel> levels = spec.bias_levels;
  if (levels.empty()) {
    // Default staircase: recent quarter window at equal weight with the
    // full window (degenerates to one level for tiny windows).
    const uint64_t quarter = spec.window_n / 4;
    if (quarter >= 1 && quarter < spec.window_n) {
      levels.push_back(BiasLevel{quarter, 1.0});
    }
    levels.push_back(BiasLevel{spec.window_n, 1.0});
  }
  if (Status status = StepBiasedSampler::CheckLevels(levels); !status.ok()) {
    return status;
  }
  // One substrate sampler per level window; single-sample substrates keep
  // one sample per level, the others keep r.
  std::vector<SinkSpec> level_specs(levels.size());
  for (size_t i = 0; i < levels.size(); ++i) {
    level_specs[i].name = substrate.info.name;
    level_specs[i].window_n = levels[i].window;
    level_specs[i].k = substrate.info.single_sample ? 1 : spec.r;
  }
  return SinkMaker([levels = std::move(levels),
                    level_specs = std::move(level_specs),
                    make = substrate.make](uint64_t seed) -> Result<Sink> {
    std::vector<std::unique_ptr<WindowSampler>> samplers;
    samplers.reserve(level_specs.size());
    for (size_t i = 0; i < level_specs.size(); ++i) {
      auto sampler = make(level_specs[i], Rng::ForkSeed(seed, i + 1));
      if (!sampler.ok()) return sampler.status();
      samplers.push_back(TakeSampler(std::move(sampler).ValueOrDie()));
    }
    auto biased = StepBiasedSampler::Create(levels, seed, std::move(samplers));
    if (!biased.ok()) return biased.status();
    return AsSink(
        BiasedMeanEstimator::Create(std::move(biased).ValueOrDie()));
  });
}

Result<SinkMaker> BindWindowCount(const SinkSpec& spec,
                                  const Entry& substrate) {
  WindowCountEstimator::Mode mode;
  if (substrate.info.model == WindowModel::kSequence) {
    mode = WindowCountEstimator::Mode::kSequence;
  } else if (std::string_view(substrate.info.name) == "exact-ts") {
    mode = WindowCountEstimator::Mode::kTsExact;
  } else {
    mode = WindowCountEstimator::Mode::kTsHistogram;
  }
  return SinkMaker([mode, n = spec.window_n, t = spec.window_t,
                    eps = spec.count_eps](uint64_t) {
    return AsSink(WindowCountEstimator::Create(mode, n, t, eps));
  });
}

constexpr Entry Sampler(const char* name, WindowModel model,
                        bool single_sample, const char* summary,
                        MakeFn make) {
  return Entry{{name, SinkKind::kSampler, model, single_sample, "", "",
                SubstrateSet::kNone, summary},
               make,
               nullptr};
}

constexpr Entry Estimator(const char* name, const char* metric,
                          const char* default_substrate,
                          WindowModel default_model, SubstrateSet substrates,
                          const char* summary, BindFn bind) {
  return Entry{{name, SinkKind::kEstimator, default_model, false, metric,
                default_substrate, substrates, summary},
               nullptr,
               bind};
}

constexpr WindowModel kSeq = WindowModel::kSequence;
constexpr WindowModel kTs = WindowModel::kTimestamp;

/// THE table: every sink in the library, samplers first.
constexpr Entry kSinks[] = {
    Sampler("bop-seq-single", kSeq, /*single_sample=*/true,
            "paper Sec 2.1 single sample, O(1) words",
            [](const SinkSpec& s, uint64_t seed) -> Result<Sink> {
              auto inner = SequenceSwrSampler::Create(s.window_n, 1, seed);
              if (!inner.ok()) return inner.status();
              return AsSink<SeqSingleSampler>(
                  std::make_unique<SeqSingleSampler>(
                      std::move(inner).ValueOrDie()));
            }),
    Sampler("bop-seq-swr", kSeq, false,
            "paper Thm 2.1 k-sample with replacement, O(k) words",
            [](const SinkSpec& s, uint64_t seed) {
              return AsSink(SequenceSwrSampler::Create(s.window_n, s.k, seed));
            }),
    Sampler("bop-seq-swor", kSeq, false,
            "paper Thm 2.2 k-sample without replacement, O(k) words",
            [](const SinkSpec& s, uint64_t seed) {
              return AsSink(SequenceSworSampler::Create(s.window_n, s.k, seed));
            }),
    Sampler("bop-ts-single", kTs, /*single_sample=*/true,
            "paper Sec 3 single sample, O(log n) words",
            [](const SinkSpec& s, uint64_t seed) -> Result<Sink> {
              // TsSingleSampler implements WindowSampler directly.
              auto inner = TsSingleSampler::Create(s.window_t, seed);
              if (!inner.ok()) return inner.status();
              return AsSink<TsSingleSampler>(std::make_unique<TsSingleSampler>(
                  std::move(inner).ValueOrDie()));
            }),
    Sampler("bop-ts-swr", kTs, false,
            "paper Thm 3.9 k-sample with replacement, O(k log n) words",
            [](const SinkSpec& s, uint64_t seed) {
              return AsSink(TsSwrSampler::Create(s.window_t, s.k, seed));
            }),
    Sampler("bop-ts-swor", kTs, false,
            "paper Thm 4.4 k-sample without replacement, O(k log n) words",
            [](const SinkSpec& s, uint64_t seed) {
              return AsSink(TsSworSampler::Create(s.window_t, s.k, seed));
            }),
    Sampler("bdm-chain", kSeq, false,
            "Babcock-Datar-Motwani chain sampling (randomized memory)",
            [](const SinkSpec& s, uint64_t seed) {
              return AsSink(ChainSampler::Create(s.window_n, s.k, seed));
            }),
    Sampler("oversample-swor", kSeq, false,
            "over-sampling SWOR baseline (may fail to return k distinct)",
            [](const SinkSpec& s, uint64_t seed) {
              return AsSink(OverSampler::Create(
                  s.window_n, s.k, s.oversample_factor, seed));
            }),
    Sampler("exact-seq", kSeq, false, "exact full-window oracle, O(n) words",
            [](const SinkSpec& s, uint64_t seed) {
              return AsSink(ExactWindow::CreateSequence(
                  s.window_n, s.k, s.with_replacement, seed));
            }),
    Sampler("bdm-priority", kTs, false,
            "Babcock-Datar-Motwani priority sampling (randomized memory)",
            [](const SinkSpec& s, uint64_t seed) {
              return AsSink(PrioritySampler::Create(s.window_t, s.k, seed));
            }),
    Sampler("gl-bounded-priority", kTs, false,
            "Gemulla-Lehner bounded priority SWOR (randomized memory)",
            [](const SinkSpec& s, uint64_t seed) {
              return AsSink(
                  BoundedPrioritySampler::Create(s.window_t, s.k, seed));
            }),
    Sampler("exact-ts", kTs, false, "exact full-window oracle, O(window) words",
            [](const SinkSpec& s, uint64_t seed) {
              return AsSink(ExactWindow::CreateTimestamp(
                  s.window_t, s.k, s.with_replacement, seed));
            }),
    Estimator("ams-fk", "F_k", "bop-seq-single", kSeq, SubstrateSet::kPayload,
              "AMS frequency moment F_k over a sliding window (Cor 5.2)",
              BindPayload<MakeFk>),
    Estimator("ccm-entropy", "H-bits", "bop-seq-single", kSeq,
              SubstrateSet::kPayload,
              "CCM empirical entropy (bits) over a sliding window (Cor 5.4)",
              BindPayload<MakeEntropy>),
    Estimator(
        "buriol-triangles", "T3", "bop-seq-single", kSeq,
        SubstrateSet::kPayload,
        "Buriol et al. triangle count over a sliding edge window (Cor 5.3)",
        BindPayload<MakeTriangles>),
    Estimator("dkw-quantile", "q-quantile", "bop-seq-swor", kSeq,
              SubstrateSet::kAll,
              "windowed quantile from a k-sample, DKW rank error (Thm 5.1)",
              BindQuantile),
    Estimator("biased-mean", "biased-mean", "bop-seq-swr", kSeq,
              SubstrateSet::kSequence,
              "step-bias-weighted recency mean over nested windows (Sec 5)",
              BindBiasedMean),
    Estimator(
        "window-count", "count", "bop-ts-single", kTs, SubstrateSet::kAll,
        "active-element count: exact (sequence) or DGIM n-hat (timestamp)",
        BindWindowCount),
};

const Entry* FindEntry(std::string_view name) {
  for (const Entry& entry : kSinks) {
    if (name == entry.info.name) return &entry;
  }
  return nullptr;
}

std::string NamesOf(SinkKind kind) {
  std::string out;
  for (const Entry& entry : kSinks) {
    if (entry.info.kind != kind) continue;
    if (!out.empty()) out += ", ";
    out += entry.info.name;
  }
  return out;
}

Status UnknownSink(std::string_view name) {
  return Status::InvalidArgument("unknown sink \"" + std::string(name) +
                                 "\"; registered: " + RegisteredSinkNames());
}

/// A validated spec's rows: the named sink and, for estimators, the
/// resolved substrate sampler.
struct Resolved {
  const Entry* entry;
  const Entry* substrate;
};

/// The substrate row an estimator spec names (or defaults to); nullptr
/// when the name is not a sampler.
const Entry* SubstrateOf(const SinkSpec& spec, const SinkInfo& estimator) {
  const Entry* substrate = FindEntry(spec.substrate.empty()
                                         ? estimator.default_substrate
                                         : std::string_view(spec.substrate));
  return substrate != nullptr && substrate->info.kind == SinkKind::kSampler
             ? substrate
             : nullptr;
}

Status UnknownSubstrate(const SinkSpec& spec) {
  return Status::InvalidArgument(
      spec.name + ": unknown substrate \"" + spec.substrate +
      "\"; registered samplers: " + NamesOf(SinkKind::kSampler));
}

/// Looks `spec` up and validates everything the table can check before a
/// constructor runs: the window of the relevant model, k == 1 for
/// single-sample samplers, and an estimator's substrate and r.
Result<Resolved> Resolve(const SinkSpec& spec) {
  const Entry* entry = FindEntry(spec.name);
  if (entry == nullptr) return UnknownSink(spec.name);
  const SinkInfo& info = entry->info;
  if (info.kind == SinkKind::kSampler) {
    if (info.model == WindowModel::kSequence && spec.window_n < 1) {
      return Status::InvalidArgument(spec.name +
                                     ": config.window_n must be >= 1");
    }
    if (info.model == WindowModel::kTimestamp && spec.window_t < 1) {
      return Status::InvalidArgument(spec.name +
                                     ": config.window_t must be >= 1");
    }
    if (info.single_sample && spec.k != 1) {
      return Status::InvalidArgument(
          spec.name + ": single-sample variant requires k == 1");
    }
    return Resolved{entry, nullptr};
  }
  const Entry* substrate = SubstrateOf(spec, info);
  if (substrate == nullptr) return UnknownSubstrate(spec);
  const char* substrate_name = substrate->info.name;
  if (!AcceptsSubstrate(info, substrate_name)) {
    std::string compatible;
    for (const char* name : CompatibleSubstrates(info)) {
      if (!compatible.empty()) compatible += ", ";
      compatible += name;
    }
    return Status::InvalidArgument(
        spec.name + ": substrate \"" + substrate_name +
        "\" is not compatible; compatible substrates: " + compatible);
  }
  if (substrate->info.model == WindowModel::kSequence && spec.window_n < 1) {
    return Status::InvalidArgument(spec.name +
                                   ": config.window_n must be >= 1 for "
                                   "sequence substrate " + substrate_name);
  }
  if (substrate->info.model == WindowModel::kTimestamp && spec.window_t < 1) {
    return Status::InvalidArgument(spec.name +
                                   ": config.window_t must be >= 1 for "
                                   "timestamp substrate " + substrate_name);
  }
  if (spec.r < 1) {
    return Status::InvalidArgument(spec.name + ": config.r must be >= 1");
  }
  return Resolved{entry, substrate};
}

/// Constructs a resolved spec. Samplers construct directly from the spec;
/// estimators bind first (a one-shot bind copies the spec once).
Result<Sink> Construct(const Resolved& resolved, const SinkSpec& spec) {
  if (resolved.entry->make != nullptr) {
    return resolved.entry->make(spec, spec.seed);
  }
  auto maker = resolved.entry->bind(spec, *resolved.substrate);
  if (!maker.ok()) return maker.status();
  return maker.value()(spec.seed);
}

}  // namespace

std::vector<SinkInfo> RegisteredSinks(SinkKind kind) {
  std::vector<SinkInfo> out;
  for (const Entry& entry : kSinks) {
    if (entry.info.kind == kind) out.push_back(entry.info);
  }
  return out;
}

const SinkInfo* FindSink(std::string_view name) {
  const Entry* entry = FindEntry(name);
  return entry == nullptr ? nullptr : &entry->info;
}

bool AcceptsSubstrate(const SinkInfo& estimator, std::string_view substrate) {
  const SinkInfo* sampler = FindSink(substrate);
  if (sampler == nullptr || sampler->kind != SinkKind::kSampler) return false;
  switch (estimator.substrates) {
    case SubstrateSet::kNone:
      return false;
    case SubstrateSet::kPayload:
      return FindPayloadName(substrate) != nullptr;
    case SubstrateSet::kAll:
      return true;
    case SubstrateSet::kSequence:
      return sampler->model == WindowModel::kSequence;
  }
  return false;
}

std::vector<const char*> CompatibleSubstrates(const SinkInfo& estimator) {
  std::vector<const char*> out;
  for (const Entry& entry : kSinks) {
    if (AcceptsSubstrate(estimator, entry.info.name)) {
      out.push_back(entry.info.name);
    }
  }
  return out;
}

Result<SinkKind> SinkKindOf(std::string_view name) {
  const SinkInfo* info = FindSink(name);
  if (info == nullptr) return UnknownSink(name);
  return info->kind;
}

Result<WindowModel> SinkWindowModel(const SinkSpec& spec) {
  const SinkInfo* info = FindSink(spec.name);
  if (info == nullptr) return UnknownSink(spec.name);
  if (info->kind == SinkKind::kSampler) return info->model;
  const Entry* substrate = SubstrateOf(spec, *info);
  if (substrate == nullptr) return UnknownSubstrate(spec);
  return substrate->info.model;
}

Result<Sink> CreateSink(const SinkSpec& spec) {
  auto resolved = Resolve(spec);
  if (!resolved.ok()) return resolved.status();
  return Construct(resolved.value(), spec);
}

Result<SinkFactory> SinkFactory::Bind(const SinkSpec& spec) {
  auto resolved = Resolve(spec);
  if (!resolved.ok()) return resolved.status();
  const Entry& entry = *resolved.value().entry;
  SinkFactory factory;
  factory.spec_ = spec;
  factory.kind_ = entry.info.kind;
  if (entry.make != nullptr) {
    factory.make_ = [spec, make = entry.make](uint64_t seed) {
      return make(spec, seed);
    };
  } else {
    auto maker = entry.bind(spec, *resolved.value().substrate);
    if (!maker.ok()) return maker.status();
    factory.make_ = std::move(maker).ValueOrDie();
  }
  // The probe construction front-loads every error a constructor itself
  // reports (e.g. k > n for SWOR).
  auto probe = factory.Create(spec.seed);
  if (!probe.ok()) return probe.status();
  return factory;
}

Result<Sink> SinkFactory::Create(uint64_t seed) const {
  if (!make_) {
    return Status::FailedPrecondition("SinkFactory: Create before Bind");
  }
  return make_(seed);
}

namespace {

/// Splits a sequence window across shards; identity for shards == 1.
Result<uint64_t> SplitSequenceWindow(std::string_view name, uint64_t window_n,
                                     uint64_t shards) {
  if (shards == 1) return window_n;
  if (window_n < shards || window_n % shards != 0) {
    return Status::InvalidArgument(
        std::string(name) + ": window_n (" + std::to_string(window_n) +
        ") must be a positive multiple of the shard count (" +
        std::to_string(shards) +
        ") so the shard windows union to the global window");
  }
  return window_n / shards;
}

}  // namespace

Result<SinkSpec> ShardSinkSpec(const SinkSpec& spec, uint64_t shard,
                               uint64_t shards) {
  if (shards < 1 || shard >= shards) {
    return Status::InvalidArgument(
        "ShardSinkSpec: requires 0 <= shard < shards");
  }
  auto model = SinkWindowModel(spec);
  if (!model.ok()) return model.status();
  SinkSpec shard_spec = spec;
  if (model.value() == WindowModel::kSequence) {
    auto window = SplitSequenceWindow(spec.name, spec.window_n, shards);
    if (!window.ok()) return window.status();
    shard_spec.window_n = window.value();
    for (BiasLevel& level : shard_spec.bias_levels) {
      auto level_window =
          SplitSequenceWindow("biased-mean level", level.window, shards);
      if (!level_window.ok()) return level_window.status();
      level.window = level_window.value();
    }
  }
  shard_spec.seed = Rng::ForkSeed(spec.seed, shard);
  return shard_spec;
}

Result<std::vector<Sink>> CreateShardedSinks(const SinkSpec& spec,
                                             uint64_t shards) {
  if (shards < 1) {
    return Status::InvalidArgument("CreateShardedSinks: shards must be >= 1");
  }
  std::vector<Sink> replicas;
  replicas.reserve(shards);
  for (uint64_t shard = 0; shard < shards; ++shard) {
    auto shard_spec = ShardSinkSpec(spec, shard, shards);
    if (!shard_spec.ok()) return shard_spec.status();
    auto replica = CreateSink(shard_spec.value());
    if (!replica.ok()) return replica.status();
    replicas.push_back(std::move(replica).ValueOrDie());
  }
  return replicas;
}

// --- The envelope codec -------------------------------------------------

namespace {

/// Caps a corrupt bias-level count before allocation (levels are nested
/// windows — a handful in any real configuration).
constexpr uint64_t kMaxBiasLevels = 1024;

/// The one allocation rule for specs read from untrusted envelopes: the
/// counts that size a sink's unit arrays — k or r, times the oversampling
/// factor, times the bias-level count — multiply to at most
/// kMaxCheckpointUnits, so a forged envelope cannot make construction
/// allocate without bound before its payload is checked. Each factor is
/// capped first, so the product cannot overflow 64 bits.
bool WithinUnitCap(uint64_t count, uint64_t oversample, uint64_t levels) {
  levels = std::max<uint64_t>(levels, 1);
  return count <= kMaxCheckpointUnits && oversample <= kMaxCheckpointUnits &&
         levels <= kMaxBiasLevels &&
         count * oversample * levels <= kMaxCheckpointUnits;
}

/// Envelope header plus the spec fields of `kind` (format version 1: six
/// sampler fields, or the estimator fields with the substrate and bias
/// levels).
void PutSpec(const SinkSpec& spec, SinkKind kind, BinaryWriter* w) {
  WriteCheckpointHeader(kind == SinkKind::kSampler ? CheckpointKind::kSampler
                                                   : CheckpointKind::kEstimator,
                        w);
  w->PutString(spec.name);
  if (kind == SinkKind::kSampler) {
    w->PutU64(spec.window_n);
    w->PutI64(spec.window_t);
    w->PutU64(spec.k);
    w->PutU64(spec.seed);
    w->PutU64(spec.oversample_factor);
    w->PutBool(spec.with_replacement);
    return;
  }
  w->PutString(spec.substrate);
  w->PutU64(spec.window_n);
  w->PutI64(spec.window_t);
  w->PutU64(spec.r);
  w->PutU64(spec.seed);
  w->PutU64(spec.moment);
  w->PutU64(spec.num_vertices);
  w->PutDouble(spec.count_eps);
  w->PutDouble(spec.q);
  w->PutU64(spec.oversample_factor);
  w->PutU64(spec.bias_levels.size());
  for (const BiasLevel& level : spec.bias_levels) {
    w->PutU64(level.window);
    w->PutDouble(level.weight);
  }
}

/// Reads what PutSpec wrote after the header; false on truncation, on
/// out-of-range fields, or on counts past WithinUnitCap.
bool GetSpec(BinaryReader* r, CheckpointKind kind, SinkSpec* spec) {
  if (!r->GetString(&spec->name)) return false;
  if (kind == CheckpointKind::kSampler) {
    return r->GetU64(&spec->window_n) && r->GetI64(&spec->window_t) &&
           r->GetU64(&spec->k) && r->GetU64(&spec->seed) &&
           r->GetU64(&spec->oversample_factor) &&
           r->GetBool(&spec->with_replacement) &&
           WithinUnitCap(spec->k, spec->oversample_factor, 0);
  }
  uint64_t moment = 0, vertices = 0, levels = 0;
  if (!r->GetString(&spec->substrate) || !r->GetU64(&spec->window_n) ||
      !r->GetI64(&spec->window_t) || !r->GetU64(&spec->r) ||
      !r->GetU64(&spec->seed) || !r->GetU64(&moment) ||
      !r->GetU64(&vertices) || !r->GetDouble(&spec->count_eps) ||
      !r->GetDouble(&spec->q) || !r->GetU64(&spec->oversample_factor) ||
      !r->GetU64(&levels)) {
    return false;
  }
  if (moment > UINT32_MAX || vertices > UINT32_MAX ||
      !std::isfinite(spec->count_eps) || !std::isfinite(spec->q) ||
      !WithinUnitCap(spec->r, spec->oversample_factor, levels)) {
    return false;
  }
  spec->moment = static_cast<uint32_t>(moment);
  spec->num_vertices = static_cast<uint32_t>(vertices);
  spec->bias_levels.clear();
  for (uint64_t i = 0; i < levels; ++i) {
    BiasLevel level;
    if (!r->GetU64(&level.window) || !r->GetDouble(&level.weight)) {
      return false;
    }
    spec->bias_levels.push_back(level);
  }
  return true;
}

}  // namespace

Result<std::string> SaveSink(const StreamSink& sink, const SinkSpec& spec) {
  const Entry* entry = FindEntry(spec.name);
  if (entry == nullptr) return UnknownSink(spec.name);
  if (spec.name != sink.name()) {
    return Status::InvalidArgument("SaveSink: spec names \"" + spec.name +
                                   "\" but the sink is \"" + sink.name() +
                                   "\"");
  }
  if (!sink.persistable()) {
    return Status::FailedPrecondition(spec.name +
                                      ": sink is not persistable");
  }
  BinaryWriter w;
  PutSpec(spec, entry->info.kind, &w);
  sink.SaveState(&w);
  return w.Release();
}

Result<RestoredSink> RestoreSink(std::string_view blob) {
  BinaryReader r(blob);
  CheckpointKind kind;
  if (!ReadCheckpointHeader(&r, &kind)) {
    return Status::InvalidArgument(
        "RestoreSink: bad magic, unsupported version, or unknown kind");
  }
  if (kind != CheckpointKind::kSampler && kind != CheckpointKind::kEstimator) {
    return Status::InvalidArgument(
        "RestoreSink: blob is not a sampler or estimator checkpoint");
  }
  RestoredSink out;
  if (!GetSpec(&r, kind, &out.spec)) {
    return Status::InvalidArgument(
        "RestoreSink: truncated or invalid envelope");
  }
  auto resolved = Resolve(out.spec);
  if (!resolved.ok()) return resolved.status();
  if ((resolved.value().entry->info.kind == SinkKind::kSampler) !=
      (kind == CheckpointKind::kSampler)) {
    return Status::InvalidArgument("RestoreSink: \"" + out.spec.name +
                                   "\" does not match the envelope kind");
  }
  auto sink = Construct(resolved.value(), out.spec);
  if (!sink.ok()) return sink.status();
  out.sink = std::move(sink).ValueOrDie();
  if (!out.sink.sink->LoadState(&r) || !r.AtEnd()) {
    return Status::InvalidArgument(
        out.spec.name + ": truncated, corrupt, or trailing checkpoint state");
  }
  return out;
}

std::vector<StreamSink*> SinkPointers(const std::vector<Sink>& shards) {
  std::vector<StreamSink*> out;
  out.reserve(shards.size());
  for (const Sink& shard : shards) out.push_back(shard.sink.get());
  return out;
}

Result<std::vector<WindowSampler*>> SamplerPointers(
    const std::vector<Sink>& shards) {
  std::vector<WindowSampler*> out;
  out.reserve(shards.size());
  for (const Sink& shard : shards) {
    if (shard.sampler == nullptr) {
      return Status::InvalidArgument(
          "SamplerPointers: shard set holds a non-sampler sink");
    }
    out.push_back(shard.sampler);
  }
  return out;
}

Result<std::vector<WindowEstimator*>> EstimatorPointers(
    const std::vector<Sink>& shards) {
  std::vector<WindowEstimator*> out;
  out.reserve(shards.size());
  for (const Sink& shard : shards) {
    if (shard.estimator == nullptr) {
      return Status::InvalidArgument(
          "EstimatorPointers: shard set holds a non-estimator sink");
    }
    out.push_back(shard.estimator);
  }
  return out;
}

std::string RegisteredSinkNames() {
  std::string out = NamesOf(SinkKind::kSampler);
  out += ", ";
  out += NamesOf(SinkKind::kEstimator);
  return out;
}

std::string FormatSinkList() {
  std::string out = "samplers (sink spec: name[,key=value]...):\n";
  for (const Entry& entry : kSinks) {
    const SinkInfo& info = entry.info;
    if (info.kind != SinkKind::kSampler) continue;
    out += "  ";
    out += info.name;
    out += info.model == WindowModel::kSequence ? "  [sequence]  "
                                                : "  [timestamp]  ";
    out += info.summary;
    out += "\n";
  }
  out += "estimators (sink spec: name[@substrate][,key=value]...):\n";
  for (const Entry& entry : kSinks) {
    const SinkInfo& info = entry.info;
    if (info.kind != SinkKind::kEstimator) continue;
    out += "  ";
    out += info.name;
    out += "  [";
    out += info.metric;
    out += ", default @";
    out += info.default_substrate;
    out += "]  ";
    out += info.summary;
    out += "\n";
  }
  return out;
}

}  // namespace swsample
