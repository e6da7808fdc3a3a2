// OnlineRegHD — streaming regression for non-stationary IoT data.
//
// The paper motivates RegHD with real-time learning on embedded devices
// (§1, §3); this wrapper packages the pieces a deployment needs around
// MultiModelRegressor::train_step:
//
//  * anytime feature/target standardization from running statistics (no
//    offline scaler fit);
//  * predict-then-train ("prequential") updates, returning each prediction
//    in original target units before the label is consumed;
//  * periodic binary-snapshot refresh (the paper's batch-level
//    re-binarization) without epoch boundaries;
//  * optional exponential forgetting (accumulator decay) so the model tracks
//    concept drift instead of averaging over it.
//
// The underlying model is accessible for persistence or inspection.
//
// A value type: a copy duplicates all mutable state and shares the one
// immutable encoder (a pure function of its seed, encoded through const
// methods), so copies may encode concurrently from different threads.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "core/config.hpp"
#include "core/encoded.hpp"
#include "core/multi_model.hpp"
#include "hdc/encoding.hpp"
#include "util/statistics.hpp"

namespace reghd::core {

struct OnlineConfig {
  RegHDConfig reghd;
  hdc::EncoderConfig encoder;  ///< input_dim set at construction; dim forced to reghd.dim.

  /// Refresh binary snapshots every this many updates (0 disables; only
  /// meaningful for quantized cluster/model modes).
  std::size_t requantize_every = 256;

  /// Accumulator decay applied once per update; 1.0 disables. 0.999 ≈ a
  /// forgetting horizon of ~1000 samples.
  double decay = 1.0;

  /// Standardize features/target with running statistics. When false, raw
  /// units flow straight into the encoder.
  bool adaptive_scaling = true;

  /// Updates before scaling statistics are trusted. Warmup convention: a
  /// reading trains the model only once *more than* `warmup` readings have
  /// been consumed (the first trained reading is number warmup+1), and
  /// predict() returns the running target mean (cold-start guard) while
  /// seen ≤ warmup — i.e. until at least one reading has trained the model.
  /// Both gates use the same boundary, so the first model-backed prediction
  /// and the first model update happen on the same reading.
  std::size_t warmup = 10;
};

class OnlineRegHD;

/// One trained shard replica of a stream, keyed by its shard id. The id is
/// the canonical merge key: merge_replicas reduces in ascending shard order
/// no matter how the span is arranged, which is what makes the merge
/// order-invariant bit for bit.
struct OnlineShardReplica {
  std::size_t shard = 0;
  const OnlineRegHD* learner = nullptr;
};

class OnlineRegHD {
 public:
  /// `num_features` fixes the stream's input width.
  OnlineRegHD(OnlineConfig config, std::size_t num_features);

  /// Merges independently trained replicas of one stream (identical configs
  /// and feature counts, distinct shard ids) into a single learner:
  ///
  ///  * model/cluster accumulators — summed training deltas against the
  ///    shared post-construction base (HD bundling; exact because every
  ///    replica starts from the same seeded state), reduced in ascending
  ///    shard order, finalized with one requantize() (fresh snapshots, exact
  ///    ‖C‖², rebuilt packed bank);
  ///  * feature/target statistics — parallel Welford merge, ascending shard
  ///    order;
  ///  * accounting — samples_seen sums; since_requantize becomes the summed
  ///    counters modulo requantize_every (the merge itself requantized).
  ///
  /// A single replica is copied verbatim (stale snapshots and all), so S = 1
  /// is bit-identical to the replica — and therefore to an unsharded stream.
  [[nodiscard]] static OnlineRegHD merge_replicas(
      std::span<const OnlineShardReplica> replicas);

  /// Predict-then-train on one labelled reading. Returns the prediction
  /// made *before* the label was used (original units) — the prequential
  /// protocol.
  double update(std::span<const double> features, double target);

  /// Predict-then-train on a block of labelled readings (row-major
  /// num_readings × num_features). Block-frozen prequential semantics: every
  /// returned prediction is made against the model and statistics at block
  /// entry; the labels are then consumed in reading order (statistics,
  /// warmup accounting) and the post-warmup readings are trained as one
  /// deterministic mini-batch (MultiModelRegressor::train_batch) with decay
  /// applied once per trained reading. Results never depend on thread count,
  /// and a one-reading block is bit-identical to update().
  std::vector<double> update_batch(std::span<const double> features_flat,
                                   std::span<const double> targets);

  /// Prediction only (original units).
  [[nodiscard]] double predict(std::span<const double> features) const;

  /// predict() with a caller-owned standardization buffer: identical math,
  /// counters and results, but the scaled-reading scratch lives with the
  /// caller, so steady-state calls touch no allocator once the buffer has
  /// grown to the feature count. The serving runtime's low-load fused path
  /// keeps one such buffer per shard worker. predict() itself delegates here.
  [[nodiscard]] double predict_reusing(std::span<const double> features,
                                       std::vector<double>& scaled_scratch) const;

  /// True while predict() is in the cold-start regime (adaptive scaling on
  /// and no reading has trained the model yet — see the warmup convention).
  [[nodiscard]] bool cold() const noexcept {
    return config_.adaptive_scaling && seen_ <= config_.warmup;
  }

  /// The fallback value predict() returns while cold(): the running target
  /// mean, or 0 before any label has been consumed.
  [[nodiscard]] double cold_prediction() const {
    return target_stats_.count() > 0 ? target_stats_.mean() : 0.0;
  }

  /// Standardizes a row-major block of readings (num_rows × num_features)
  /// into `out` with exactly predict()'s per-feature transform — identity
  /// copy when adaptive scaling is off. Allocation-free; the serving batch
  /// path standardizes the admission batch through this before encoding it
  /// into the shard's arena.
  void standardize_rows_into(std::span<const double> rows_flat, std::size_t num_rows,
                             std::span<double> out) const;

  /// Maps a model-space prediction back to original target units (the public
  /// form of the internal unscale transform — the serving batch path
  /// composes MultiModelRegressor::predict_batch_into with this).
  [[nodiscard]] double unscale(double y_scaled) const { return unscale_target(y_scaled); }

  /// Encoder access for callers that drive the regressor's batch/fused
  /// kernels directly on standardized readings (serving runtime, benches).
  /// Copies of a learner return the same object.
  [[nodiscard]] const hdc::Encoder& encoder() const noexcept { return *encoder_; }

  /// Re-applies a projection-storage deployment choice by rebuilding this
  /// learner's encoder from its own config (copies keep the one they share).
  /// Storage is a runtime/footprint knob, not model identity — it is
  /// deliberately not serialized, so every checkpoint loads kResident;
  /// callers running rematerialized switch back here. Encodings are
  /// bit-identical in both modes.
  void set_projection_storage(hdc::ProjectionStorage storage);

  [[nodiscard]] std::size_t samples_seen() const noexcept { return seen_; }

  [[nodiscard]] const MultiModelRegressor& model() const noexcept { return model_; }
  [[nodiscard]] MultiModelRegressor& mutable_model() noexcept { return model_; }
  [[nodiscard]] const OnlineConfig& config() const noexcept { return config_; }

  /// Streaming-state introspection (checkpointing, tests).
  [[nodiscard]] std::size_t num_features() const noexcept { return feature_stats_.size(); }
  [[nodiscard]] const std::vector<util::RunningStats>& feature_stats() const noexcept {
    return feature_stats_;
  }
  [[nodiscard]] const util::RunningStats& target_stats() const noexcept {
    return target_stats_;
  }
  [[nodiscard]] std::size_t since_requantize() const noexcept { return since_requantize_; }

  /// Restores the streaming state captured by a checkpoint
  /// (core/checkpoint). Together with restoring the regressor's full state
  /// through mutable_model(), this makes a resumed stream bit-identical to
  /// one that never stopped. Throws if the feature count differs.
  void restore_state(std::vector<util::RunningStats> feature_stats,
                     util::RunningStats target_stats, std::size_t seen,
                     std::size_t since_requantize);

 private:
  /// Standardizes one reading with the running statistics.
  [[nodiscard]] hdc::EncodedSample encode(std::span<const double> features) const;
  [[nodiscard]] double scale_target(double y) const;
  [[nodiscard]] double unscale_target(double y_scaled) const;

  OnlineConfig config_;
  std::shared_ptr<const hdc::Encoder> encoder_;  ///< immutable; shared by copies.
  MultiModelRegressor model_;
  std::vector<util::RunningStats> feature_stats_;
  util::RunningStats target_stats_;
  std::size_t seen_ = 0;
  std::size_t since_requantize_ = 0;

  // update() scratch: the standardization buffer and a one-reading encode
  // arena. Both reach steady-state capacity on the first update, after which
  // the per-sample train path touches no allocator — update() runs once per
  // sample on the serving trainer thread, where a fresh std::vector per call
  // is real jitter. Pure scratch: never serialized, never compared.
  std::vector<double> update_scratch_;
  EncodedDataset update_arena_;
};

}  // namespace reghd::core
