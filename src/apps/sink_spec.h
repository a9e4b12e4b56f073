// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// The sink table and its one description. `SinkSpec` describes any of
/// the library's eighteen sinks — twelve samplers and six estimators — and
/// one table (sink_spec.cc) lists each of them with its kind, window
/// model, metric, substrates, summary and maker. `CreateSink` and
/// `SinkFactory` construct from that table; `SaveSink`/`RestoreSink` are
/// the one checkpoint codec for sink state. The CLI, the sharded driver's
/// replica fan-out, the keyed engine, checkpoint restore, benches and
/// tests all build sinks here.
///
/// Theorem 5.1 turns a sampling-based streaming estimator into a
/// sliding-window estimator by swapping its sampler for a window sampler;
/// here the swap is the `@substrate` part of an estimator's spec.
///
/// A spec is parseable from a single string:
///
///   name[@substrate][,key=value]...
///
///   bop-seq-swor,n=65536,k=64,seed=7
///   ams-fk@bop-ts-swr,t=1000,r=256,moment=2
///   biased-mean,n=4096,bias=1024:0.5+4096:0.5
///
/// Recognized keys: n (sequence window), t (timestamp window), k (sampler
/// sample count), r (estimator unit count), seed, oversample, wr (0/1,
/// exact-oracle replacement mode), moment, vertices, eps, q, and
/// bias=window:weight[+window:weight]... . Unknown names and keys are
/// InvalidArgument with the registered/recognized set in the message.
/// FormatSinkSpec renders the canonical string (defaults omitted) and
/// round-trips through ParseSinkSpec.
///
/// Registered sinks:
///
///   name                  kind       model / metric  source
///   --------------------  ---------  --------------  ----------------------
///   bop-seq-single        sampler    sequence        Sec 2.1 single sample
///   bop-seq-swr           sampler    sequence        Thm 2.1, k-sample SWR
///   bop-seq-swor          sampler    sequence        Thm 2.2, k-sample SWOR
///   bop-ts-single         sampler    timestamp       Sec 3 (Thm 3.9, k=1)
///   bop-ts-swr            sampler    timestamp       Thm 3.9, k copies
///   bop-ts-swor           sampler    timestamp       Thm 4.4 reduction
///   bdm-chain             sampler    sequence        Babcock-Datar-Motwani
///   oversample-swor       sampler    sequence        folklore over-sampling
///   exact-seq             sampler    sequence        full-window oracle
///   bdm-priority          sampler    timestamp       Babcock-Datar-Motwani
///   gl-bounded-priority   sampler    timestamp       Gemulla-Lehner
///   exact-ts              sampler    timestamp       full-window oracle
///   ams-fk                estimator  F_k             Cor 5.2, AMS
///   ccm-entropy           estimator  H               Cor 5.4, CCM
///   buriol-triangles      estimator  T3              Cor 5.3, Buriol et al.
///   dkw-quantile          estimator  q-quantile      Thm 5.1 + DKW
///   biased-mean           estimator  mean            Sec 5 step bias
///   window-count          estimator  n(t)            Sec 1.3.2, DGIM
///
/// Substrates: the payload estimators (ams-fk, ccm-entropy,
/// buriol-triangles) accept bop-seq-single/swr, bop-ts-single/swr and
/// exact-seq/exact-ts — the with-replacement k-samples are k independent
/// single-sample copies (Thms 2.1/3.9), so both names build the same
/// payload structure; dkw-quantile and window-count accept every sampler;
/// biased-mean accepts every sequence-model sampler.
///
/// Sharding: `ShardSinkSpec` is the single derivation of a shard replica's
/// configuration — sequence windows split as window_n / shards (must divide
/// evenly, bias levels included), seeds forked with Rng::ForkSeed — and
/// `CreateShardedSinks` materializes the replicas. The checkpoint
/// serializers (stream/checkpoint.h) stamp each shard's envelope with the
/// exact spec that constructed it via the same derivation.
///
/// Persistence: SaveSink writes the checkpoint envelope (core/checkpoint.h)
/// from the spec — kind 1 carries a sampler's name, window_n, window_t,
/// k, seed, oversample and wr; kind 2 carries an estimator's name,
/// substrate, window_n, window_t, r, seed, moment, vertices, eps, q,
/// oversample and bias levels — then the sink's SaveState payload.
/// RestoreSink reads either kind back into a SinkSpec with one loader,
/// constructs through CreateSink and refills the state. Truncation,
/// unknown names, invalid specs and trailing bytes are InvalidArgument,
/// never a crash.
///
/// Ownership: CreateSink returns a caller-owned Sink whose unique_ptr owns
/// the object; the typed views (`sampler`/`estimator`) alias it and share
/// its lifetime.
///
/// Thread-safety: free functions over an immutable table; constructed
/// sinks follow core/api.h's one-thread-per-instance rule.

#ifndef SWSAMPLE_APPS_SINK_SPEC_H_
#define SWSAMPLE_APPS_SINK_SPEC_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/biased.h"
#include "apps/estimator.h"
#include "core/api.h"
#include "util/status.h"

namespace swsample {

/// Which window parameter a sink reads: SinkSpec::window_n or ::window_t.
enum class WindowModel {
  kSequence,   ///< last window_n arrivals are active
  kTimestamp,  ///< active <=> now - T(p) < window_t
};

/// Whether a sink is a sampler or an estimator. The names are disjoint.
enum class SinkKind {
  kSampler,
  kEstimator,
};

/// Which samplers an estimator accepts as its substrate.
enum class SubstrateSet {
  kNone,      ///< samplers: no substrate
  kPayload,   ///< bop-seq-single/swr, bop-ts-single/swr, exact-seq/ts
  kAll,       ///< every sampler
  kSequence,  ///< every sequence-model sampler
};

/// Static description of one registered sink: a row of the sink table.
struct SinkInfo {
  const char* name;  ///< table key; equals the constructed sink's name()
  SinkKind kind;
  /// Samplers: their window model. Estimators: the model of their default
  /// substrate (SinkWindowModel resolves the model of a given spec).
  WindowModel model;
  bool single_sample;             ///< samplers: requires k == 1
  const char* metric;             ///< estimators: what Estimate() reports
  const char* default_substrate;  ///< estimators: used when substrate is ""
  SubstrateSet substrates;        ///< estimators: accepted substrates
  const char* summary;            ///< one-line description for --help
};

/// One description of any constructible sink, keyed by its table name.
/// Only the fields the named sink (and its window model) uses are
/// validated; the rest are ignored.
struct SinkSpec {
  /// Table name of a sampler or an estimator. Decides the kind.
  std::string name;
  /// Sampling substrate (estimators only); "" selects the estimator's
  /// default substrate.
  std::string substrate;
  /// Sequence window size n (sequence-model sinks; >= 1 there).
  uint64_t window_n = 0;
  /// Timestamp window length t0 (timestamp-model sinks; >= 1 there).
  Timestamp window_t = 0;
  /// Samples to maintain (samplers; single-sample names require 1).
  uint64_t k = 1;
  /// Independent sampling units / sample size (estimators).
  uint64_t r = 64;
  /// RNG seed; equal specs construct identically-behaving sinks.
  uint64_t seed = 0;
  /// Frequency moment (ams-fk only).
  uint32_t moment = 2;
  /// Vertex universe size (buriol-triangles only).
  uint32_t num_vertices = 0;
  /// Relative error of the DGIM window-size estimate (timestamp
  /// substrates).
  double count_eps = 0.05;
  /// Quantile reported by dkw-quantile.
  double q = 0.5;
  /// Recency levels (biased-mean only); empty derives the default
  /// staircase.
  std::vector<BiasLevel> bias_levels;
  /// Over-sampling factor (oversample-swor substrate/sampler).
  uint64_t oversample_factor = 3;
  /// Sampling mode of the exact-window oracles.
  bool with_replacement = true;
};

/// A constructed sink with its typed views: `sink` owns the object;
/// exactly one of `sampler`/`estimator` is non-null and aliases it.
struct Sink {
  std::unique_ptr<StreamSink> sink;
  WindowSampler* sampler = nullptr;
  WindowEstimator* estimator = nullptr;

  SinkKind kind() const {
    return sampler != nullptr ? SinkKind::kSampler : SinkKind::kEstimator;
  }
};

/// Every registered sink of `kind`, in table order.
std::vector<SinkInfo> RegisteredSinks(SinkKind kind);

/// The table row registered under `name`, or nullptr if unknown.
const SinkInfo* FindSink(std::string_view name);

/// The sampler names `estimator` accepts as its substrate, in table order.
std::vector<const char*> CompatibleSubstrates(const SinkInfo& estimator);

/// True iff `estimator` runs over the sampler registered as `substrate`.
bool AcceptsSubstrate(const SinkInfo& estimator, std::string_view substrate);

/// The kind of the sink registered under `name`; InvalidArgument (listing
/// every registered name) when `name` is not in the table.
Result<SinkKind> SinkKindOf(std::string_view name);

/// The window model `spec` operates under: the named sampler's model, or
/// the estimator's (possibly defaulted) substrate's model.
Result<WindowModel> SinkWindowModel(const SinkSpec& spec);

/// Parses the `name[@substrate][,key=value]...` grammar above.
Result<SinkSpec> ParseSinkSpec(std::string_view text);

/// Canonical string form (defaults omitted); ParseSinkSpec round-trips it.
std::string FormatSinkSpec(const SinkSpec& spec);

/// THE factory: constructs the sink `spec` describes. Unknown names,
/// unknown/incompatible substrates and invalid configurations come back as
/// InvalidArgument.
Result<Sink> CreateSink(const SinkSpec& spec);

/// Construction bound to one spec: the table lookup, validation and any
/// derived substrate specs are resolved ONCE at bind time, so call sites
/// that construct the same shape over and over with varying seeds — the
/// keyed engine makes one sink per tenant, millions of them at 1e7 keys —
/// neither rescan names nor copy the spec per sink. Create(seed) behaves
/// exactly like CreateSink on a copy of the bound spec with `seed`
/// substituted.
class SinkFactory {
 public:
  /// Unbound factory (Create on it fails); assign a Bind() result
  /// before use. Exists so factories can live by value in engines.
  SinkFactory() = default;

  /// Resolves and validates `spec`, then constructs (and discards) one
  /// sink, so a factory that binds successfully cannot fail later for
  /// configuration reasons.
  static Result<SinkFactory> Bind(const SinkSpec& spec);

  /// Constructs a sink with the bound configuration and `seed`.
  Result<Sink> Create(uint64_t seed) const;

  SinkKind kind() const { return kind_; }
  /// The bound spec; `spec().seed` is the pre-fork root seed.
  const SinkSpec& spec() const { return spec_; }

 private:
  SinkSpec spec_;
  SinkKind kind_ = SinkKind::kSampler;
  /// The bound constructor: everything but the seed is already resolved.
  std::function<Result<Sink>(uint64_t seed)> make_;
};

/// The configuration shard `shard` of `shards` replicas runs under: the
/// seed forked with Rng::ForkSeed(spec.seed, shard) and, for
/// sequence-model sinks, window_n (and any bias-level windows) split as
/// window_n / shards — which must divide evenly so the shard windows
/// union to the global window. Timestamp windows pass through unchanged
/// (activity is per-item).
Result<SinkSpec> ShardSinkSpec(const SinkSpec& spec, uint64_t shard,
                               uint64_t shards);

/// Builds `shards` replicas for sharded ingestion, one CreateSink per
/// ShardSinkSpec derivation.
Result<std::vector<Sink>> CreateShardedSinks(const SinkSpec& spec,
                                             uint64_t shards);

/// Serializes a spec-constructed sink into the checkpoint envelope (see
/// the file comment). `spec` must be the spec the sink was constructed
/// from; a sink whose name() differs from `spec.name` is InvalidArgument,
/// a non-persistable sink FailedPrecondition.
Result<std::string> SaveSink(const StreamSink& sink, const SinkSpec& spec);

/// A sink read back from an envelope, with the spec that reconstructs it.
struct RestoredSink {
  Sink sink;
  SinkSpec spec;
};

/// Restores a sampler or estimator envelope: reads the spec, constructs
/// it through CreateSink and refills the saved state, so the result
/// resumes the saved sink bit for bit.
Result<RestoredSink> RestoreSink(std::string_view blob);

/// View adaptors over homogeneous CreateShardedSinks results. The typed
/// adaptors require every element to be of that kind (checked; a mixed or
/// mismatched vector is a caller bug surfaced as InvalidArgument).
std::vector<StreamSink*> SinkPointers(const std::vector<Sink>& shards);
Result<std::vector<WindowSampler*>> SamplerPointers(
    const std::vector<Sink>& shards);
Result<std::vector<WindowEstimator*>> EstimatorPointers(
    const std::vector<Sink>& shards);

/// "name1, name2, ..." over the whole table — for CLI usage/error text.
std::string RegisteredSinkNames();

/// --list-sinks rendering: one line per registered sampler and estimator
/// (kind, name, model/substrates, summary).
std::string FormatSinkList();

}  // namespace swsample

#endif  // SWSAMPLE_APPS_SINK_SPEC_H_
