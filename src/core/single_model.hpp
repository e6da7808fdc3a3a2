// Single-model RegHD regression (paper §2.3, Eq. 2).
//
// One model hypervector M, initialized to zero. For each training pair
// (S, y): predict ŷ = (1/D)·M·S, then update M ← M + α·(y − ŷ)·S. Training
// iterates epochs until the validation MSE stabilizes.
//
// This learner exists both as the k = 1 baseline of the multi-model
// experiments (Fig. 3) and as the pedagogical core of the algorithm; its
// hypervector-capacity limitation on multi-modal tasks (§2.3, Eq. 4) is what
// motivates MultiModelRegressor.
#pragma once

#include <span>

#include "core/config.hpp"
#include "core/encoded.hpp"
#include "core/kernels.hpp"
#include "core/training.hpp"

namespace reghd::core {

class SingleModelRegressor {
 public:
  /// Uses dim, learning_rate, the epoch/stopping fields, and the
  /// query/model precisions of `config`; `models` and the cluster fields
  /// are ignored. Throws on invalid config.
  explicit SingleModelRegressor(const RegHDConfig& config);

  /// Iterative training (paper's "iterative learning") with early stopping
  /// on `val`. Resets the model first. With config.batch_size ≥ 1 each epoch
  /// trains in deterministic batch-frozen mini-batches via train_batch and
  /// `hooks->on_batch` fires after every applied batch.
  TrainingReport fit(const EncodedDataset& train, const EncodedDataset& val,
                     const TrainingHooks* hooks = nullptr);

  /// One single-pass online step (encode-train-discard); exposed for the
  /// streaming example and the single-pass-vs-iterative experiment.
  void train_step(const hdc::EncodedSampleView& sample, double target);

  /// One deterministic batch-frozen mini-batch step: Eq. 2 predictions of
  /// every listed sample are computed in parallel against the entry model,
  /// then the updates are applied serially in ascending list order.
  /// predictions[j] receives the pre-update prediction of
  /// data.sample(indices[j]). Results depend only on the index list, never
  /// on `threads` (0 = config.threads); a single-index call is bit-identical
  /// to train_step.
  void train_batch(const EncodedDataset& data, std::span<const std::size_t> indices,
                   std::span<double> predictions, std::size_t threads = 0);

  /// ŷ = (1/D)·M·S at the configured prediction precision.
  [[nodiscard]] double predict(const hdc::EncodedSampleView& sample) const;

  /// Predicts every sample, parallelized over rows with up to `threads`
  /// workers (0 = config.threads, then REGHD_THREADS / hardware
  /// concurrency). Result i equals predict(sample i) for any thread count.
  [[nodiscard]] std::vector<double> predict_batch(const EncodedDataset& dataset,
                                                  std::size_t threads = 0) const;

  /// Mean squared error over an encoded dataset.
  [[nodiscard]] double evaluate_mse(const EncodedDataset& dataset) const;

  /// The snapshots of M (binary, ternary, γ scales).
  [[nodiscard]] const RegressionModel& model() const noexcept { return model_; }
  /// The integer accumulator M.
  [[nodiscard]] std::span<const double> accumulator() const noexcept {
    return accumulator_.values();
  }
  [[nodiscard]] const RegHDConfig& config() const noexcept { return config_; }

  /// Re-derives the binary snapshot from the accumulator (done automatically
  /// at each epoch boundary during fit()).
  void requantize() {
    obs::count(obs::Counter::kRequantizes);
    model_.requantize(accumulator_.values());
  }

  /// Resets M to zero.
  void reset();

 private:
  RegHDConfig config_;
  hdc::RealHV accumulator_;
  RegressionModel model_;

  // train_batch phase-2 coefficient scratch, reused across batches.
  std::vector<double> batch_coeff_;
};

}  // namespace reghd::core
