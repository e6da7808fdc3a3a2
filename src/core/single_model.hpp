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
//
// Eq. 2 is Eqs. 5–8 at k = 1: the one-element softmax gives δ' = 1, so the
// Eq. 7 update is Eq. 2's and the Eq. 6 prediction is (1/D)·M·S. The class
// is therefore a thin adapter over a k = 1 MultiModelRegressor, whose scorer
// and update paths it runs (core_multi_model_test pins them against Eq. 2 in
// every mode). Only fit() keeps its own epoch driver, for its shuffle stream.
#pragma once

#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/encoded.hpp"
#include "core/multi_model.hpp"
#include "core/training.hpp"

namespace reghd::core {

class SingleModelRegressor {
 public:
  /// Uses dim, learning_rate, the epoch/stopping and training fields, and
  /// the query/model precisions of `config`; `models` is fixed at 1, and the
  /// cluster fields do not change M or any prediction at k = 1. Throws on
  /// invalid config.
  explicit SingleModelRegressor(const RegHDConfig& config);

  /// Iterative training (paper's "iterative learning") with early stopping
  /// on `val`. Resets the model first. Each epoch is one
  /// MultiModelRegressor::train_epoch over the training rows shuffled by
  /// Rng(config.seed): with config.batch_size ≥ 1 it trains in deterministic
  /// batch-frozen mini-batches and `hooks->on_batch` fires after every
  /// applied batch. Keeps the best validation epoch's model.
  TrainingReport fit(const EncodedDataset& train, const EncodedDataset& val,
                     const TrainingHooks* hooks = nullptr);

  /// One single-pass online step (encode-train-discard); exposed for the
  /// streaming example and the single-pass-vs-iterative experiment.
  void train_step(const hdc::EncodedSampleView& sample, double target) {
    (void)multi_.train_step(sample, target);
  }

  /// One deterministic batch-frozen mini-batch step: Eq. 2 predictions of
  /// every listed sample are computed in parallel against the entry model,
  /// then the updates are applied serially in ascending list order.
  /// predictions[j] receives the pre-update prediction of
  /// data.sample(indices[j]). Results depend only on the index list, never
  /// on `threads` (0 = config.threads); a single-index call is bit-identical
  /// to train_step. Throws std::invalid_argument before any update if an
  /// index is out of range.
  void train_batch(const EncodedDataset& data, std::span<const std::size_t> indices,
                   std::span<double> predictions, std::size_t threads = 0) {
    multi_.train_batch(data, indices, predictions, threads);
  }

  /// ŷ = (1/D)·M·S at the configured prediction precision.
  [[nodiscard]] double predict(const hdc::EncodedSampleView& sample) const {
    return multi_.predict(sample);
  }

  /// Predicts every sample, parallelized over rows with up to `threads`
  /// workers (0 = config.threads, then REGHD_THREADS / hardware
  /// concurrency). Result i equals predict(sample i) for any thread count.
  [[nodiscard]] std::vector<double> predict_batch(const EncodedDataset& dataset,
                                                  std::size_t threads = 0) const {
    return multi_.predict_batch(dataset, threads);
  }

  /// Mean squared error over an encoded dataset.
  [[nodiscard]] double evaluate_mse(const EncodedDataset& dataset) const {
    return multi_.evaluate_mse(dataset);
  }

  /// The snapshots of M (binary, ternary, γ scales).
  [[nodiscard]] const RegressionModel& model() const { return multi_.model(0); }
  /// The integer accumulator M.
  [[nodiscard]] std::span<const double> accumulator() const {
    return multi_.model_accumulator(0);
  }
  [[nodiscard]] const RegHDConfig& config() const noexcept { return multi_.config(); }

  /// Re-derives the binary snapshot from the accumulator (done automatically
  /// at each epoch boundary during fit()).
  void requantize() { multi_.requantize(); }

  /// Resets M to zero.
  void reset() { multi_.reset(); }

 private:
  MultiModelRegressor multi_;
};

}  // namespace reghd::core
