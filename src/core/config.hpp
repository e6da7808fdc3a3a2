// RegHD configuration: every knob of the algorithm in one aggregate.
//
// The enums mirror the paper's design space:
//  * ClusterMode      — §3.1: full-precision cosine search, the proposed
//                       dual-copy quantized clustering (Hamming search over
//                       binary snapshots, updates on integer accumulators),
//                       or the naive one-shot binarization the paper uses as
//                       its foil in Fig. 6.
//  * QueryPrecision   — §3.2: real-valued encoder output ("integer query")
//                       or its sign-binarized packed form ("binary query").
//  * ModelPrecision   — §3.2: integer (accumulator) regression models or
//                       per-epoch binary snapshots with a calibration scale.
//  * UpdateRule       — Eq. 7 is ambiguous about which models absorb the
//                       shared error; kConfidenceWeighted distributes it by
//                       softmax confidence (reducing to the paper's rule for
//                       one-hot confidence), kWinnerOnly updates only the
//                       most-similar cluster's model. Both are provided and
//                       ablated (DESIGN.md §6.3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace reghd::core {

/// How cluster similarity search is performed and clusters are maintained.
enum class ClusterMode : std::uint8_t {
  kFullPrecision = 0,  ///< Cosine similarity over integer (real) centers.
  kQuantized = 1,      ///< Hamming search over binary snapshots (§3.1).
  kNaiveBinary = 2,    ///< One-shot binarization, frozen clusters (Fig. 6 foil).
};

/// Precision of the query entering similarity and prediction kernels.
enum class QueryPrecision : std::uint8_t {
  kReal = 0,    ///< Non-binarized encoder output.
  kBinary = 1,  ///< Sign-binarized, bit-packed.
};

/// Precision of the regression model used for prediction.
enum class ModelPrecision : std::uint8_t {
  kReal = 0,    ///< The integer accumulator model.
  kBinary = 1,  ///< Per-epoch binary snapshot with calibration scale γ.
  /// QuantHD-style ternary snapshot {−γ, 0, +γ}: components below a
  /// threshold fraction of the mean magnitude are masked out, the rest are
  /// binarized. Keeps the multiply-free kernel while dropping the noisy
  /// small components the binary snapshot is forced to round to ±1 (§5's
  /// cited quantization framework, applied to regression).
  kTernary = 2,
};

/// Which regression models absorb the prediction error (Eq. 7).
enum class UpdateRule : std::uint8_t {
  kConfidenceWeighted = 0,
  kWinnerOnly = 1,
};

/// How cluster centers are initialized before iterative training.
enum class ClusterInit : std::uint8_t {
  /// The paper's §2.4 rule: random binary hypervectors. Random centers are
  /// near-orthogonal to every encoded sample, so the first center to win a
  /// sample can run away with the whole dataset (classic winner-take-all
  /// collapse on blob-like data).
  kRandom = 0,
  /// Farthest-point sampling of k encoded training samples (k-means++-style;
  /// the library default). Each center starts inside the data, so clusters
  /// partition the input distribution from epoch one. Ablated against
  /// kRandom in bench/ablation_design.
  kFarthestPoint = 1,
};

[[nodiscard]] std::string to_string(ClusterMode mode);
[[nodiscard]] std::string to_string(QueryPrecision precision);
[[nodiscard]] std::string to_string(ModelPrecision precision);
[[nodiscard]] std::string to_string(UpdateRule rule);
[[nodiscard]] std::string to_string(ClusterInit init);

/// The four named prediction configurations of §3.2 / Fig. 7.
struct PredictionMode {
  QueryPrecision query = QueryPrecision::kReal;
  ModelPrecision model = ModelPrecision::kReal;

  [[nodiscard]] static PredictionMode full_precision() noexcept {
    return {QueryPrecision::kReal, ModelPrecision::kReal};
  }
  [[nodiscard]] static PredictionMode binary_query_integer_model() noexcept {
    return {QueryPrecision::kBinary, ModelPrecision::kReal};
  }
  [[nodiscard]] static PredictionMode integer_query_binary_model() noexcept {
    return {QueryPrecision::kReal, ModelPrecision::kBinary};
  }
  [[nodiscard]] static PredictionMode binary_query_binary_model() noexcept {
    return {QueryPrecision::kBinary, ModelPrecision::kBinary};
  }

  [[nodiscard]] std::string to_string() const;

  bool operator==(const PredictionMode&) const = default;
};

/// Full RegHD hyperparameter set. Defaults reproduce the paper's standard
/// configuration (RegHD-8, D = 4k, full precision).
struct RegHDConfig {
  std::size_t dim = 4096;       ///< D — hypervector dimensionality.
  std::size_t models = 8;       ///< k — cluster/regression model count.
  double learning_rate = 0.15;  ///< α in Eqs. 2 and 7 (normalized-LMS step).

  std::size_t max_epochs = 80;
  std::size_t patience = 8;     ///< Epochs without sufficient improvement before stopping.
  double tolerance = 1e-3;      ///< Minimum relative val-MSE improvement that resets patience.

  /// Softmax temperature for turning similarities into confidences (§2.4).
  /// With normalize_similarities the logits are z-scores (mean 0, std 1
  /// across the k clusters), so τ ≈ 0.5 gives a confident-but-soft gate
  /// regardless of the encoder's similarity scale.
  double softmax_temperature = 0.5;

  /// Z-score the k similarities before the softmax (the paper's
  /// "normalization block" before the confidence weights). Encoders differ
  /// wildly in how much their cosine similarities spread — Eq. 1 encodings
  /// share a large common component that compresses the range — and
  /// z-scoring makes the confidence gate invariant to that scale. Ablated in
  /// bench/ablation_design.
  bool normalize_similarities = true;

  ClusterMode cluster_mode = ClusterMode::kFullPrecision;
  QueryPrecision query_precision = QueryPrecision::kReal;
  ModelPrecision model_precision = ModelPrecision::kReal;
  UpdateRule update_rule = UpdateRule::kConfidenceWeighted;
  ClusterInit cluster_init = ClusterInit::kFarthestPoint;

  /// Robust training: clamp the per-sample error used in the Eq. 2/7 update
  /// to ±error_clip (standardized target units) — the gradient-clipping
  /// analogue of a Huber loss. Label outliers (sensor glitches, the forest
  /// fires tail) then move the model by a bounded step instead of
  /// proportionally to their magnitude. 0 disables.
  double error_clip = 0.0;

  /// Binary-snapshot refresh cadence in samples; 0 refreshes once per epoch.
  /// The paper binarizes "after going through all training data (or a
  /// batch)" — this is the batch option. Smaller intervals keep the
  /// quantized kernels fresher at the cost of more binarization passes
  /// (costed in perf/kernel_costs as cost_binarize per refresh).
  std::size_t requantize_interval = 0;

  /// Mini-batch size for iterative fit(). 0 trains strictly online (the
  /// paper's sample-by-sample Eqs. 5–8, the historical default); B ≥ 1
  /// trains in deterministic batch-frozen mini-batches: each epoch splits
  /// the shuffled order into runs of B samples, the per-sample similarities,
  /// confidences, predictions and update coefficients are computed in
  /// parallel against the batch-start state, and the Eq. 7/8 accumulator
  /// updates are applied serially in sample order. Results depend only on B
  /// (never on thread count), and B = 1 is bit-identical to 0. Unlike
  /// `threads`, this is part of the learning semantics.
  std::size_t batch_size = 0;

  std::uint64_t seed = 0x52E6D5EEDULL;

  /// Worker threads for the batch encode/predict/train paths, and the size
  /// of the training team that splits the per-sample epoch's update sweep
  /// by arena rows (train_epoch at batch_size 0 with a real query and
  /// full-precision clusters; capped at the pool size and 2k, serial below
  /// a minimum per-step size or inside other pool work); 0 defers to the
  /// REGHD_THREADS environment variable, else hardware concurrency. A pure
  /// runtime knob — results are bit-identical regardless of the value, and
  /// it is deliberately not serialized with trained models.
  std::size_t threads = 0;

  /// Route single-sample predict() through the fused encode→search→predict
  /// fast path (MultiModelRegressor::predict_one) when the encoder supports
  /// block encoding and the mode combination has a fused implementation.
  /// The fused path is bit-identical to the materializing path, so this is a
  /// pure runtime knob like `threads` — not serialized with trained models —
  /// and exists mainly so equivalence tests and benchmarks can pin either
  /// path explicitly.
  bool fused_predict = true;

  [[nodiscard]] PredictionMode prediction_mode() const noexcept {
    return {query_precision, model_precision};
  }

  /// Throws std::invalid_argument if any field is out of range.
  void validate() const;
};

}  // namespace reghd::core
