// Multi-model RegHD regression — the paper's primary contribution
// (§2.4, Eqs. 5–8) with the quantization framework of §3 (Eqs. 9, Fig. 5).
//
// State: k cluster hypervectors C_i (random ±1 initialization, integer
// accumulators thereafter) and k regression models M_i (zero-initialized
// accumulators). Per training pair (S, y):
//
//   1. similarities  δ_i = δ(S, C_i)            (Eq. 5 — cosine, or Hamming
//                                                over binary snapshots in
//                                                quantized-cluster mode)
//   2. confidences   δ'_i = softmax(δ / τ)      (normalization block)
//   3. prediction    ŷ = Σ_i δ'_i·(1/D)·M_i·S   (Eq. 6)
//   4. model update  M_i += α·(y−ŷ)·δ'_i·S      (Eq. 7, confidence-weighted;
//                                                winner-only mode available)
//   5. cluster update, l = argmax δ:
//                    C_l += (1−δ_l)·S           (Eq. 8; Eq. 9's dual-copy
//                                                form in quantized mode)
//
// End of each epoch re-binarizes the quantized snapshots (C^b from C, M^b
// and γ from M). Training iterates until validation MSE stabilizes.
// Prediction (Eq. 6) runs steps 1–3 with the configured §3.2 kernel.
#pragma once

#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/encoded.hpp"
#include "core/kernels.hpp"
#include "core/training.hpp"
#include "util/aligned.hpp"
#include "util/random.hpp"

namespace reghd::hdc {
class Encoder;
}

namespace reghd::core {

/// State of one cluster center: the integer accumulator C, its binary
/// snapshot C^b, and the cached squared norm for O(1) cosine updates.
struct ClusterCenter {
  hdc::RealHV accumulator;
  hdc::BinaryHV binary;
  double norm2 = 0.0;

  /// Refreshes the binary snapshot from the accumulator.
  void requantize() { binary = accumulator.sign_packed(); }
};

/// Per-sample introspection of a prediction (the paper highlights model
/// interpretability; this exposes it).
struct PredictionDetail {
  double prediction = 0.0;
  std::vector<double> similarities;   ///< δ_i per cluster.
  std::vector<double> confidences;    ///< δ'_i (softmax).
  std::vector<double> model_outputs;  ///< (1/D)·M_i·S per model.
  std::size_t best_cluster = 0;       ///< argmax δ.
};

class MultiModelRegressor {
 public:
  /// Validates and stores the configuration; allocates k zero models and k
  /// random ±1 cluster centers drawn from config.seed.
  explicit MultiModelRegressor(const RegHDConfig& config);

  /// Iterative training with early stopping on `val`. Re-initializes all
  /// state first, so fit() is idempotent for a fixed config. `hooks`
  /// (optional) receives the periodic checkpoint callback.
  TrainingReport fit(const EncodedDataset& train, const EncodedDataset& val,
                     const TrainingHooks* hooks = nullptr);

  /// fit() on the listed rows of `train`, in list order, read in place: the
  /// model bytes and report equal fit(train.subset(rows), val, hooks) — the
  /// shuffle, seeding and per-epoch MSE run over list positions — without
  /// copying a row. The sharded trainer hands each shard its row list into
  /// the one training arena through this. Throws if `rows` is empty or holds
  /// an index out of range.
  TrainingReport fit(const EncodedDataset& train, std::span<const std::size_t> rows,
                     const EncodedDataset& val, const TrainingHooks* hooks = nullptr);

  /// One online training step (used by fit and by the streaming example).
  /// Returns the pre-update prediction for the sample.
  double train_step(const hdc::EncodedSampleView& sample, double target);

  /// One deterministic batch-frozen mini-batch step (the batch_size ≥ 1
  /// semantics of fit, also driven directly by OnlineRegHD::update_batch):
  /// the Eq. 5 similarities, confidences, Eq. 6 predictions, errors and
  /// update coefficients of every listed sample are computed in parallel
  /// against the entry state, then the Eq. 7/8 accumulator updates are
  /// applied serially in ascending list order (per accumulator; distinct
  /// accumulators are independent). predictions[j] receives the pre-update
  /// batch-frozen prediction of data.sample(indices[j]). Results depend only
  /// on the index list, never on `threads` (0 = config.threads); a
  /// single-index call is bit-identical to train_step.
  void train_batch(const EncodedDataset& data, std::span<const std::size_t> indices,
                   std::span<double> predictions, std::size_t threads = 0);

  /// End-of-epoch snapshot refresh; called automatically inside fit().
  void requantize();

  /// Eq. 6 prediction with the configured kernels.
  [[nodiscard]] double predict(const hdc::EncodedSampleView& sample) const;

  /// Prediction plus all intermediate quantities.
  [[nodiscard]] PredictionDetail predict_detail(const hdc::EncodedSampleView& sample) const;

  /// Fused single-query (B = 1) prediction: encode → similarity search →
  /// confidence → predict in one pass over L1-resident blocks of the
  /// hyperspace, the software mirror of the sim/accelerator.hpp stage
  /// pipeline. Instead of materializing the full D-dimensional encoding and
  /// then re-streaming it against every cluster/model row, each 1024-
  /// component block is encoded (encoder.encode_real_block) and immediately
  /// scored against the (k_c + k_m)-row bank while it is still in cache —
  /// dot_rows_block carries per-row reduction state across blocks in the
  /// real/real mode, and the quantized modes sign-encode the block and
  /// accumulate exact integer popcount scores. Bit-identical to
  /// predict(encoder.encode(features)) in every mode: the supported
  /// cluster/query/model combinations fuse (same kernels, same rounding
  /// sequence — see the predict_batch fast paths this replays), all others
  /// fall back to exactly that materializing expression. config().
  /// fused_predict = false forces the fallback. Thread-safe (thread_local
  /// scratch).
  [[nodiscard]] double predict_one(const hdc::Encoder& encoder,
                                   std::span<const double> features) const;

  /// Predicts every sample, parallelized over rows with up to `threads`
  /// workers (0 = config.threads, then REGHD_THREADS / hardware
  /// concurrency). Result i equals predict(sample i) for any thread count.
  [[nodiscard]] std::vector<double> predict_batch(const EncodedDataset& dataset,
                                                  std::size_t threads = 0) const;

  /// Caller-owned scratch for predict_batch_into: the contiguous
  /// (k_c + k_m)×D bank (or its packed 2-bit-plane form in quantized modes)
  /// plus the per-row score/similarity buffers. prepare_predict_scratch
  /// sizes everything once; after that, predict_batch_into touches no
  /// allocator — the invariant the serving runtime's admission batcher
  /// asserts on its predict path. Reusable across calls and across
  /// re-preparations (storage capacity is retained).
  struct PredictScratch {
    util::AlignedVector<double> bank;  ///< Full-precision cluster+model rows.
    std::vector<double> cluster_norm;  ///< √‖C‖² per cluster.
    PackedTernaryBank packed;          ///< Quantized-mode fallback bank.
    std::vector<double> scores;        ///< Per-row real dot scores.
    std::vector<std::int64_t> qscores; ///< Per-row popcount scores.
    std::vector<double> sims;          ///< δ_i scratch (k_c).
    bool prepared = false;
  };

  /// Builds `scratch` from the current model state (bank copy / packed-bank
  /// build, norm cache, buffer sizing). Must be re-run whenever the model
  /// state changes — the serving worker re-prepares once per snapshot swap,
  /// off the per-query path.
  void prepare_predict_scratch(PredictScratch& scratch) const;

  /// Serial, allocation-free predict_batch: writes predict(sample(i)) into
  /// out[i] for every row, scoring through `scratch`'s bank. Bit-identical
  /// to predict_batch(dataset) in every mode (same kernels, same float
  /// expression sequence; the parallel form is row-independent, so the
  /// serial order changes nothing). `scratch` must have been prepared
  /// against this exact model state. The one caveat: mode combinations
  /// outside the two bank fast paths fall back to per-row predict(), which
  /// allocates — same as predict_batch's own generic path.
  void predict_batch_into(const EncodedDataset& dataset, std::span<double> out,
                          PredictScratch& scratch) const;

  [[nodiscard]] double evaluate_mse(const EncodedDataset& dataset) const;

  /// δ_i for every cluster (Eq. 5 / Hamming in quantized mode).
  [[nodiscard]] std::vector<double> similarities(const hdc::EncodedSampleView& sample) const;

  /// Index of the most similar cluster.
  [[nodiscard]] std::size_t assign_cluster(const hdc::EncodedSampleView& sample) const;

  [[nodiscard]] const RegHDConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t num_models() const noexcept { return models_.size(); }
  [[nodiscard]] const RegressionModel& model(std::size_t i) const { return models_[i]; }
  [[nodiscard]] const ClusterCenter& cluster(std::size_t i) const { return clusters_[i]; }

  /// Mutable access for deserialization (model_io) and white-box tests.
  /// Handing out mutable state invalidates the packed bank — the caller may
  /// rewrite the snapshots it was built from (requantize() or
  /// rebuild_packed_bank() restores it).
  [[nodiscard]] std::vector<RegressionModel>& mutable_models() noexcept {
    packed_bank_.valid = false;
    return models_;
  }
  [[nodiscard]] std::vector<ClusterCenter>& mutable_clusters() noexcept {
    packed_bank_.valid = false;
    return clusters_;
  }

  /// The packed ternary/binary scan bank derived from the current snapshots
  /// (see PackedTernaryBank). Invalid after mutable state access until the
  /// next requantize()/rebuild; predict_batch then falls back to building a
  /// per-call bank, so results never depend on validity.
  [[nodiscard]] const PackedTernaryBank& packed_bank() const noexcept {
    return packed_bank_;
  }

  /// Mutable bank access for checkpoint restore (core/checkpoint): a saved
  /// bank is reloaded verbatim so a resumed process scores through exactly
  /// the bytes the checkpointed one did.
  [[nodiscard]] PackedTernaryBank& mutable_packed_bank() noexcept {
    return packed_bank_;
  }

  /// Rebuilds the packed bank from the current binary/ternary snapshots (the
  /// requantize-on-update policy re-packs through this; also the recovery
  /// path for checkpoints predating the bank section).
  void rebuild_packed_bank();

  /// Re-initializes clusters and models from the configured seed.
  void reset();

  /// Replays fit()'s cluster seeding rule on `train`: farthest-point
  /// initialization when the config asks for it (ClusterInit::kFarthestPoint
  /// with k > 1), a no-op otherwise. The shard-merge path uses this twice —
  /// to re-derive each replica's deterministic post-initialization base, and
  /// to seed the merged model from the full training set.
  void init_clusters(const EncodedDataset& train);

  /// init_clusters() on the listed rows of `train` (the row-list fit()'s
  /// seeding rule; equal to init_clusters(train.subset(rows))).
  void init_clusters(const EncodedDataset& train, std::span<const std::size_t> rows);

  /// Shard-merge accumulation (see core/sharded_training): adds one trained
  /// replica's training delta into this model. For every cluster and model
  /// accumulator component,
  ///   this += (replica − base)
  /// with each component rounded as one subtract then one add
  /// (KernelBackend::merge_accumulate — bit-identical across backends).
  /// `base` must be the replica's reproducible post-initialization state
  /// (models zero, clusters as seeded from the replica's own shard), so the
  /// delta is exactly what the shard's training added. HD training is
  /// bundling — commutative, associative addition — which is why summed
  /// deltas recover the joint model. Snapshots, cluster norms and the packed
  /// bank are NOT refreshed here; the caller finalizes with requantize()
  /// after the last replica (the exact ‖C‖² recompute and ternary-bank
  /// rebuild).
  void merge_accumulate_delta(const MultiModelRegressor& replica,
                              const MultiModelRegressor& base);

  /// Magnitude pruning of the regression models (SparseHD/QuantHD-style,
  /// the orthogonal optimization the paper cites in §5): zeroes the
  /// `fraction` smallest-|M_j| components of every model accumulator and
  /// refreshes the binary snapshots. Sparse models cut inference memory
  /// traffic and multiplies proportionally (see bench/extension_sparsity).
  void sparsify(double fraction);

  /// Fraction of exactly-zero components across all model accumulators.
  [[nodiscard]] double model_sparsity() const;

  /// Multiplies every model accumulator by `factor` ∈ (0, 1] — exponential
  /// forgetting for non-stationary streams (used by OnlineRegHD).
  void decay_models(double factor);

 private:
  /// Softmax over the similarity vector at the configured temperature.
  [[nodiscard]] std::vector<double> confidences_from(std::vector<double> sims) const;

  /// Eq. 5 similarities written into a caller-owned buffer of size k (the
  /// allocation-free core of similarities(); thread-safe).
  void similarities_into(const hdc::EncodedSampleView& sample, std::span<double> sims) const;

  /// In-place similarities → confidences transform (z-score + softmax); the
  /// allocation-free core of confidences_from(). Thread-safe.
  void confidences_into(std::span<double> sims) const;

  /// Farthest-point cluster seeding from the listed training rows
  /// (ClusterInit::kFarthestPoint).
  void init_clusters_from_samples(const EncodedDataset& train,
                                  std::span<const std::size_t> rows);

  /// Fills `bank` from the current snapshots at the configured model
  /// precision (the allocation-reusing core of rebuild_packed_bank; also
  /// builds predict_batch's per-call fallback bank). Thread-safe.
  void build_packed_bank_into(PackedTernaryBank& bank) const;

  RegHDConfig config_;
  std::vector<RegressionModel> models_;
  std::vector<ClusterCenter> clusters_;
  PackedTernaryBank packed_bank_;

  // Reusable train_step scratch, hoisted out of the per-sample hot loop
  // (similarities()/confidences_from() used to allocate per call). predict()
  // stays allocating: it is const and must remain safe to call concurrently
  // from predict_batch's per-row fallback.
  std::vector<double> step_sims_;
  std::vector<double> step_conf_;

  // train_batch phase-1 scratch, reused across batches of an epoch. Laid out
  // per batch sample j: sims/conf/coeff rows of k, scalar winner/weight.
  util::AlignedVector<double> batch_bank_;  ///< batch-start cluster+model bank.
  std::vector<double> batch_cnorm_;         ///< batch-start cluster norms √‖C‖².
  std::vector<double> batch_scores_;
  std::vector<double> batch_sims_;
  std::vector<double> batch_conf_;
  std::vector<double> batch_coeff_;   ///< per-model coefficients (confidence-weighted).
  std::vector<double> batch_wcoeff_;  ///< winner coefficient (winner-only rule).
  std::vector<double> batch_weight_;  ///< Eq. 8 cluster weight 1 − δ_winner.
  std::vector<std::size_t> batch_winner_;
};

}  // namespace reghd::core
