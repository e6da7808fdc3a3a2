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
//
// Storage: the 2k accumulators are one (2k)×D arena — rows 0…k−1 hold C_i,
// rows k…2k−1 hold M_i — the bank layout the dot_rows_multi kernel takes; the
// per-row ClusterCenter / RegressionModel structs hold only the snapshots,
// and the PackedTernaryBank packs those snapshots in the same row order. The
// bank is derived state: every call that changes a snapshot re-packs it, so
// it always equals the packing of the current snapshots and every predict
// path scans the model's own bank in place.
// Steps 1–3 are written once, as one private scorer that every predict and
// train path calls (predict_one finishes its fused blockwise scores through
// the scorer's last step): real rows against a real query are scanned in
// place in the arena with dot_rows_multi — a block of queries at a time on
// the batch predict paths — packed rows with dot_rows_ternary, and the other mode
// combinations with the per-row §3.2 kernels.
#pragma once

#include <span>
#include <utility>
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

  /// One online training step (OnlineRegHD and the streaming example; every
  /// per-sample epoch computes exactly this). Returns the pre-update
  /// prediction for the sample.
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

  /// One training epoch over `order` (row ids of `train`, visited in list
  /// order): per-sample train_step when batch_size = 0, else batch_size
  /// mini-batches through train_batch (firing hooks->on_batch after each),
  /// requantizing every requantize_interval samples and once at the end.
  /// Returns the summed squared error of the pre-update predictions. The
  /// epoch body of fit() and of ShardedTrainer::refine. With a real query
  /// and full-precision clusters the per-sample loop applies each sample's
  /// update and scores the next sample in one update_dot_rows sweep, split
  /// by arena rows over up to config.threads pool threads — bit-identical to
  /// the train_step loop for any thread count. Throws std::invalid_argument
  /// before any update if `order` holds an id out of range or `train` has
  /// another dim; an empty order trains nothing.
  double train_epoch(const EncodedDataset& train, std::span<const std::size_t> order,
                     std::size_t epoch, const TrainingHooks* hooks = nullptr);

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
  /// scored against the 2k-row arena slice while it is still in cache —
  /// dot_rows_block carries per-row reduction state across blocks in the
  /// real/real mode, and the quantized modes sign-encode the block and
  /// accumulate exact integer popcount scores. Bit-identical to
  /// predict(encoder.encode(features)) in every mode: the supported
  /// cluster/query/model combinations fuse (per row the same reductions as
  /// the scorer's dot_rows_multi / dot_rows_ternary sweeps, finished by the
  /// scorer's own last step), all others fall back to exactly that
  /// materializing expression. Thread-safe (thread_local scratch).
  [[nodiscard]] double predict_one(const hdc::Encoder& encoder,
                                   std::span<const double> features) const;

  /// Predicts every sample, parallelized over rows with up to `threads`
  /// workers (0 = config.threads, then REGHD_THREADS / hardware
  /// concurrency). Result i equals predict(sample i) for any thread count.
  [[nodiscard]] std::vector<double> predict_batch(const EncodedDataset& dataset,
                                                  std::size_t threads = 0) const;

  /// Caller-owned scratch for predict_batch_into: the scorer's per-query
  /// buffers and its query-block score buffer. Nothing in it mirrors the
  /// model: the scorer reads the model's arena and packed bank in place.
  /// prepare_predict_scratch sizes everything once; after that,
  /// predict_batch_into touches no allocator in any mode — the invariant the
  /// serving runtime's admission batcher asserts on its predict path.
  /// Reusable across calls and across re-preparations (capacity is
  /// retained).
  struct PredictScratch {
    std::vector<double> scores;        ///< Raw scores by row (2k); then model outputs.
    std::vector<std::int64_t> qscores; ///< Popcount scores by bank row (2k).
    std::vector<double> sims;          ///< δ_i (k).
    std::vector<double> conf;          ///< δ'_i (k).
    /// Real-row scores of one query block: kScanBlock queries × up to 2k
    /// rows, query-major (dot_rows_multi's output layout).
    std::vector<double> block;
    bool prepared = false;
  };

  /// Sizes `scratch` for the current model. Must be re-run whenever the
  /// scratch is to serve a larger model; the serving worker re-prepares once
  /// per snapshot swap, which copies nothing of the model.
  void prepare_predict_scratch(PredictScratch& scratch) const;

  /// Serial, allocation-free predict_batch: writes predict(sample(i)) into
  /// out[i] for every row. predict_batch runs this same row-range scan over
  /// 64-row chunks, so the two are bit-identical in every mode (the scan is
  /// row-independent). `scratch` must have been prepared against this
  /// model; one sized for a smaller model is refused (std::invalid_argument)
  /// before `out` is written.
  void predict_batch_into(const EncodedDataset& dataset, std::span<double> out,
                          PredictScratch& scratch) const;

  [[nodiscard]] double evaluate_mse(const EncodedDataset& dataset) const;

  /// δ_i for every cluster (Eq. 5 / Hamming in quantized mode).
  [[nodiscard]] std::vector<double> similarities(const hdc::EncodedSampleView& sample) const;

  /// Index of the most similar cluster.
  [[nodiscard]] std::size_t assign_cluster(const hdc::EncodedSampleView& sample) const;

  [[nodiscard]] const RegHDConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t num_models() const noexcept { return models_.size(); }
  /// Snapshots of M_i (binary, ternary mask, γ scales).
  [[nodiscard]] const RegressionModel& model(std::size_t i) const { return models_[i]; }
  /// Snapshots of C_i (binary, ‖C‖²).
  [[nodiscard]] const ClusterCenter& cluster(std::size_t i) const { return clusters_[i]; }
  /// The accumulators, as rows of the (2k)×D arena: C_i is row i, M_i row k + i.
  [[nodiscard]] std::span<const double> cluster_accumulator(std::size_t i) const {
    return arena_row(i);
  }
  [[nodiscard]] std::span<const double> model_accumulator(std::size_t i) const {
    return arena_row(models_.size() + i);
  }

  /// Mutable accumulator rows, for deserialization (model_io) and white-box
  /// tests. The snapshots are not refreshed; requantize() re-derives them.
  [[nodiscard]] std::span<double> mutable_cluster_accumulator(std::size_t i) {
    return arena_row(i);
  }
  [[nodiscard]] std::span<double> mutable_model_accumulator(std::size_t i) {
    return arena_row(models_.size() + i);
  }

  /// Replaces every snapshot (checkpoint restore, white-box tests) and
  /// re-packs the scan bank from them. Throws std::invalid_argument, leaving
  /// the model unchanged, unless there is one cluster and one model snapshot
  /// per model and every snapshot plane has the configured dim.
  void set_snapshots(std::vector<ClusterCenter> clusters, std::vector<RegressionModel> models);

  /// The whole trainable state by value: the accumulator arena plus the
  /// per-row snapshots. fit() and ShardedTrainer::refine keep their best
  /// epoch as one of these.
  struct State {
    util::AlignedVector<double> arena;  ///< (2k)×D: C_0…C_{k−1}, M_0…M_{k−1}.
    std::vector<ClusterCenter> clusters;
    std::vector<RegressionModel> models;
  };
  [[nodiscard]] State state() const { return {arena_, clusters_, models_}; }

  /// Adopts a state() copy of this model and re-packs the scan bank from
  /// its snapshots.
  void restore(State state);

  /// The packed ternary/binary scan bank (see PackedTernaryBank): always the
  /// packing of the current snapshots, which every predict path scans.
  [[nodiscard]] const PackedTernaryBank& packed_bank() const noexcept {
    return packed_bank_;
  }

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
  /// replica's training delta into this model. For every arena component
  /// (cluster and model accumulators alike),
  ///   this += (replica − base)
  /// with each component rounded as one subtract then one add
  /// (KernelBackend::merge_accumulate — bit-identical across backends).
  /// `base` must be the replica's reproducible post-initialization state
  /// (models zero, clusters as seeded from the replica's own shard), so the
  /// delta is exactly what the shard's training added. HD training is
  /// bundling — commutative, associative addition — which is why summed
  /// deltas recover the joint model. Snapshots and cluster norms are NOT
  /// refreshed here (so the packed bank still matches the snapshots); the
  /// caller finalizes with requantize() after the last replica (the exact
  /// ‖C‖² recompute and bank re-pack).
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
  /// In-place similarities → confidences transform (z-score + softmax).
  /// Thread-safe.
  void confidences_into(std::span<double> sims) const;

  /// Farthest-point cluster seeding from the listed training rows
  /// (ClusterInit::kFarthestPoint).
  void init_clusters_from_samples(const EncodedDataset& train,
                                  std::span<const std::size_t> rows);

  /// Re-packs packed_bank_ from the current snapshots at the configured
  /// model precision, reusing its storage. Every call that changes a
  /// snapshot ends with this.
  void rebuild_packed_bank();

  /// The Eq. 5/6 scorer behind every predict and train path: scores query
  /// `q` against the k clusters and k models and returns the Eq. 6
  /// prediction, leaving δ_i in s.sims, δ'_i in s.conf and the model outputs
  /// (1/D)·M_i·S in s.scores[k + i]. The cluster half's kernel follows
  /// cluster_mode × query precision, the model half's model × query
  /// precision: real rows against a real query are one in-place
  /// dot_rows_multi sweep over the arena, packed rows (quantized clusters;
  /// snapshot models against a binary query) one dot_rows_ternary sweep over
  /// the packed bank, and the remaining combinations the per-row §3.2
  /// kernels. `mode` is the configured prediction mode, or training's
  /// {query, real model}. Thread-safe for distinct scratches.
  double score_row(const hdc::EncodedSampleView& q, PredictionMode mode,
                   PredictScratch& s) const;

  /// score_row after its real-row sweep, whose raw scores are already in
  /// s.scores[real_rows(mode)]: the packed and per-row terms, then
  /// finish_row. scan_rows sweeps a block of queries at once and finishes
  /// each query through this.
  double finish_scan(const hdc::EncodedSampleView& q, PredictionMode mode,
                     PredictScratch& s) const;

  /// The arena rows [first, second) that score_row sweeps in place in
  /// `mode` — real rows against a real query; empty when there are none.
  [[nodiscard]] std::pair<std::size_t, std::size_t> real_rows(PredictionMode mode) const;

  /// Rows per dot_rows_multi call of scan_rows, the batch form of score_row.
  static constexpr std::size_t kScanBlock = 64;

  /// score_row's finishing step, also run by predict_one's fused scans: turns
  /// the raw row scores in s.scores (cluster half: cosine dots against
  /// ‖q‖² = query_norm2, or popcount scores in the quantized modes; model
  /// half: dots to be scaled by γ and 1/D) into δ, δ' and the Eq. 6 value.
  double finish_row(PredictionMode mode, double query_norm2, PredictScratch& s) const;

  /// Packed-bank rows score_row reads in `mode` (it reads rows
  /// [k or 0, this)); 0 when the mode reads no bank.
  [[nodiscard]] std::size_t packed_rows_read(PredictionMode mode) const;

  /// Sizes s's score buffers for this model (allocating only to grow).
  void size_scratch(PredictScratch& s) const;

  /// The calling thread's scorer scratch (one per thread, shared by every
  /// model), sized for this model.
  PredictScratch& row_scratch() const;

  /// The one row loop behind predict_batch and predict_batch_into: writes
  /// score_row(sample(i)) into out[i] for rows [r0, rn) of `dataset`, after
  /// refusing a scratch too small for this model.
  void scan_rows(const EncodedDataset& dataset, std::size_t r0, std::size_t rn,
                 std::span<double> out, PredictScratch& scratch) const;

  /// Training's per-sample plan from score_row's output, shared by
  /// train_step and train_batch's phase 1: writes row j of coeff_, the 2k
  /// per-arena-row update coefficients — the winning cluster's Eq. 8 weight
  /// 1 − δ_winner (zero elsewhere, and zero under naive binarization), then
  /// the Eq. 7 model coefficients from the clipped error against `target`
  /// (all k under the confidence-weighted rule, the winner's alone under
  /// winner-only). Returns the winning cluster. Distinct j may run
  /// concurrently.
  std::size_t plan_update(std::size_t j, const hdc::EncodedSampleView& sample,
                          double target, double prediction, const PredictScratch& s);

  /// The serial half of training's Eq. 7/8 step for one sample already
  /// scored into `s`: plans it into coeff_ row 0 and maintains the winner's
  /// ‖C‖² (whose C·S is taken before the update, so it needs none of the
  /// accumulator writes). Leaves the accumulators to the caller.
  void plan_step(const hdc::EncodedSampleView& sample, double target, double prediction,
                 const PredictScratch& s);

  /// Training's Eq. 7/8 step for one sample already scored into `s`:
  /// plan_step, then every nonzero coefficient applied (a real query: one
  /// update_dot_rows sweep over the arena).
  void apply_update(const hdc::EncodedSampleView& sample, double target, double prediction,
                    const PredictScratch& s);

  /// train_epoch's per-sample loop when real_arena_scan(): each sample's
  /// update sweep also scores the next sample, split by arena rows over a
  /// team of team_size() threads (serial when the pool refuses). Returns the
  /// summed squared error; requantizes on the configured interval but not at
  /// the end.
  double fused_epoch(const EncodedDataset& train, std::span<const std::size_t> order);

  /// Threads for fused_epoch: 1 below the per-step work size that pays for
  /// a team, else min(config threads, pool size, 2k), trimmed to the fewest
  /// members that keep the busiest member's row count.
  [[nodiscard]] std::size_t team_size() const;

  /// The mode training scores in: the configured query against the integer
  /// models being updated (paper §3.2: binary snapshots are regenerated from
  /// the integer model per epoch/batch; an error from an epoch-frozen
  /// snapshot would stay constant and destabilize the accumulation).
  [[nodiscard]] PredictionMode train_mode() const {
    return {config_.query_precision, ModelPrecision::kReal};
  }

  /// True when training's scan is one dot_rows_multi sweep over all 2k arena
  /// rows (a real query, full-precision clusters), so s.scores holds every raw
  /// C_i·S and M_i·S.
  [[nodiscard]] bool real_arena_scan() const {
    return real_rows(train_mode()) ==
           std::pair<std::size_t, std::size_t>{0, 2 * models_.size()};
  }

  [[nodiscard]] std::span<const double> arena_row(std::size_t r) const {
    return {arena_.data() + r * config_.dim, config_.dim};
  }
  [[nodiscard]] std::span<double> arena_row(std::size_t r) {
    return {arena_.data() + r * config_.dim, config_.dim};
  }

  RegHDConfig config_;
  util::AlignedVector<double> arena_;  ///< (2k)×D accumulators: C_i rows, then M_i rows.
  std::vector<ClusterCenter> clusters_;
  std::vector<RegressionModel> models_;
  PackedTernaryBank packed_bank_;

  // Training plan slots, reused across steps and batches: per sample j of a
  // batch (j = 0 for train_step), one coefficient per arena row (see
  // plan_update).
  std::vector<double> coeff_;
};

}  // namespace reghd::core
