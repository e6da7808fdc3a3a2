#include "core/single_model.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>

#include "core/early_stopping.hpp"
#include "hdc/kernel_backend.hpp"
#include "obs/telemetry.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace reghd::core {

SingleModelRegressor::SingleModelRegressor(const RegHDConfig& config) : config_(config) {
  config_.validate();
  reset();
}

void SingleModelRegressor::reset() {
  accumulator_ = hdc::RealHV(config_.dim);
  model_ = RegressionModel(config_.dim);
}

void SingleModelRegressor::train_step(const hdc::EncodedSampleView& sample, double target) {
  const obs::StageTimer timer(obs::Histo::kTrainStepNs);
  obs::count(obs::Counter::kTrainSteps);
  REGHD_CHECK(sample.real.dim() == config_.dim,
              "sample dim " << sample.real.dim() << " != model dim " << config_.dim);
  // The training error is always computed against the integer model being
  // updated (paper §3.2: M ← M + α(y − ŷ)·S updates the integer model). A
  // binary prediction mode only affects inference; using its epoch-frozen
  // snapshot for ŷ here would hold the error constant across an epoch and
  // destabilize the accumulation.
  const PredictionMode train_mode{config_.query_precision, ModelPrecision::kReal};
  const double prediction = predict_dot(accumulator_.values(), model_, sample, train_mode);
  double error = target - prediction;
  if (config_.error_clip > 0.0) {
    error = std::clamp(error, -config_.error_clip, config_.error_clip);
  }
  update_accumulator(accumulator_.values(), sample,
                     config_.learning_rate * error * update_normalizer(sample, config_.query_precision),
                     config_.query_precision);
}

void SingleModelRegressor::train_batch(const EncodedDataset& data,
                                       std::span<const std::size_t> indices,
                                       std::span<double> predictions, std::size_t threads) {
  REGHD_CHECK(predictions.size() == indices.size(),
              "train_batch needs one prediction slot per index, got "
                  << predictions.size() << " for " << indices.size());
  if (indices.empty()) {
    return;
  }
  REGHD_CHECK(data.dim() == config_.dim,
              "batch data dim " << data.dim() << " != configured dim " << config_.dim);
  const obs::StageTimer timer(obs::Histo::kTrainBatchNs);
  obs::count(obs::Counter::kTrainBatches);
  obs::count(obs::Counter::kTrainBatchSamples, indices.size());
  const std::size_t use_threads = threads != 0 ? threads : config_.threads;
  const PredictionMode train_mode{config_.query_precision, ModelPrecision::kReal};
  // Phase 1 — batch-frozen Eq. 2 predictions, parallel over samples. Each
  // store lands in sample j's own slot, so the phase is deterministic for
  // any thread count.
  util::parallel_for(
      indices.size(),
      [&](std::size_t j) {
        predictions[j] =
            predict_dot(accumulator_.values(), model_, data.sample(indices[j]), train_mode);
      },
      use_threads);
  // Coefficients for phase 2, in list order (cheap scalar work, serial).
  batch_coeff_.resize(indices.size());
  for (std::size_t j = 0; j < indices.size(); ++j) {
    double error = data.target(indices[j]) - predictions[j];
    if (config_.error_clip > 0.0) {
      error = std::clamp(error, -config_.error_clip, config_.error_clip);
    }
    batch_coeff_[j] = config_.learning_rate * error *
                      update_normalizer(data.sample(indices[j]), config_.query_precision);
  }
  // Phase 2 — apply the updates in ascending list order, dimension-sliced
  // across workers. Per accumulator component the coefficients chain in list
  // order exactly as a serial replay: add_scaled_real rounds each component
  // as an independent mul-then-add and add_scaled_bipolar adds an exact
  // ±coeff, so no component's value depends on slice boundaries (and hence
  // on the thread count).
  const hdc::KernelBackend& kb = hdc::active_backend();
  const std::size_t d = config_.dim;
  const bool real_updates = config_.query_precision == QueryPrecision::kReal;
  const double* real_rows = data.real_plane().data();
  const std::int8_t* bipolar_rows = data.bipolar_plane().data();
  const std::size_t workers = use_threads != 0 ? use_threads : util::default_thread_count();
  const std::size_t slices =
      std::min(std::max<std::size_t>(workers, 1), std::max<std::size_t>(d / 8, 1));
  const std::size_t chunk = (((d + slices - 1) / slices) + 7) & ~std::size_t{7};
  util::parallel_for(
      slices,
      [&](std::size_t s) {
        const std::size_t d0 = std::min(d, s * chunk);
        const std::size_t d1 = std::min(d, d0 + chunk);
        if (d0 >= d1) {
          return;
        }
        double* acc = accumulator_.values().data() + d0;
        for (std::size_t j = 0; j < indices.size(); ++j) {
          const std::size_t row = indices[j];
          if (real_updates) {
            kb.add_scaled_real(acc, real_rows + row * d + d0, batch_coeff_[j], d1 - d0);
          } else {
            kb.add_scaled_bipolar(acc, bipolar_rows + row * d + d0, batch_coeff_[j],
                                  d1 - d0);
          }
        }
      },
      use_threads);
}

double SingleModelRegressor::predict(const hdc::EncodedSampleView& sample) const {
  const obs::StageTimer timer(obs::Histo::kPredictNs);
  obs::count(obs::Counter::kPredicts);
  return predict_dot(accumulator_.values(), model_, sample, config_.prediction_mode());
}

std::vector<double> SingleModelRegressor::predict_batch(const EncodedDataset& dataset,
                                                        std::size_t threads) const {
  const obs::StageTimer timer(obs::Histo::kPredictBatchNs);
  obs::count(obs::Counter::kPredictBatchRows, dataset.size());
  std::vector<double> out(dataset.size());
  const std::size_t use_threads = threads != 0 ? threads : config_.threads;
  const PredictionMode mode = config_.prediction_mode();
  if (mode.query == QueryPrecision::kReal && mode.model == ModelPrecision::kReal &&
      !dataset.empty() && dataset.dim() == config_.dim) {
    // Full-precision fast path: score the whole SoA real plane against M with
    // the bank kernel, M as its one query. dot_rows_multi reduces each row
    // exactly like dot_real_real, and the /D division is the same one
    // predict_dot performs, so out[i] is bit-identical to predict(sample(i)).
    const hdc::KernelBackend& kb = hdc::active_backend();
    const double* rows = dataset.real_plane().data();
    const double* m = accumulator_.values().data();
    const std::size_t d = config_.dim;
    const double dd = static_cast<double>(d);
    constexpr std::size_t kChunk = 64;
    const std::size_t chunks = (dataset.size() + kChunk - 1) / kChunk;
    util::parallel_for(
        chunks,
        [&](std::size_t chunk) {
          const std::size_t r0 = chunk * kChunk;
          const std::size_t rn = std::min(dataset.size(), r0 + kChunk);
          kb.dot_rows_multi(rows + r0 * d, d, rn - r0, m, d, 1, d, out.data() + r0);
          for (std::size_t r = r0; r < rn; ++r) {
            out[r] /= dd;
          }
        },
        use_threads);
    return out;
  }
  if (mode.query == QueryPrecision::kBinary && mode.model == ModelPrecision::kBinary &&
      !dataset.empty() && dataset.dim() == config_.dim) {
    // Binary bank scan (§3.2 binary-query/binary-model): score the whole SoA
    // binary plane against M^b with the XNOR+popcount bank kernel. The
    // integer bipolar dots are exact and γ·dot/D replays predict_dot's float
    // expression, so out[i] is bit-identical to predict(sample(i)).
    const hdc::KernelBackend& kb = hdc::active_backend();
    const std::uint64_t* q = model_.binary.words().data();
    const std::uint64_t* bits = dataset.binary_plane().data();
    const std::size_t words = dataset.words_per_row();
    const double dd = static_cast<double>(config_.dim);
    const double gamma = model_.gamma;
    constexpr std::size_t kChunk = 64;
    const std::size_t chunks = (dataset.size() + kChunk - 1) / kChunk;
    util::parallel_for(
        chunks,
        [&](std::size_t chunk) {
          const std::size_t r0 = chunk * kChunk;
          const std::size_t rn = std::min(dataset.size(), r0 + kChunk);
          std::vector<std::int64_t> scores(rn - r0);
          kb.dot_rows_binary(q, bits + r0 * words, words, rn - r0, config_.dim,
                             scores.data());
          for (std::size_t r = r0; r < rn; ++r) {
            out[r] = gamma * static_cast<double>(scores[r - r0]) / dd;
          }
        },
        use_threads);
    return out;
  }
  util::parallel_for(
      dataset.size(), [&](std::size_t i) { out[i] = predict(dataset.sample(i)); },
      use_threads);
  return out;
}

double SingleModelRegressor::evaluate_mse(const EncodedDataset& dataset) const {
  REGHD_CHECK(!dataset.empty(), "cannot evaluate on an empty dataset");
  const std::vector<double> pred = predict_batch(dataset);
  // Serial accumulation in index order keeps the MSE bit-identical for any
  // thread count.
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double e = pred[i] - dataset.target(i);
    acc += e * e;
  }
  return acc / static_cast<double>(dataset.size());
}

TrainingReport SingleModelRegressor::fit(const EncodedDataset& train,
                                         const EncodedDataset& val,
                                         const TrainingHooks* hooks) {
  REGHD_CHECK(!train.empty(), "cannot fit on an empty training set");
  REGHD_CHECK(!val.empty(), "single-model fit requires a validation set for early stopping");
  REGHD_CHECK(train.dim() == config_.dim,
              "training data dim " << train.dim() << " != configured dim " << config_.dim);

  reset();
  util::Rng rng(config_.seed);
  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  TrainingReport report;
  EarlyStopper stopper(config_.tolerance, config_.patience);

  const PredictionMode train_mode{config_.query_precision, ModelPrecision::kReal};
  hdc::RealHV best_accumulator = accumulator_;
  RegressionModel best_model = model_;
  double best_val = std::numeric_limits<double>::infinity();

  std::vector<double> batch_predictions;
  for (std::size_t epoch = 0; epoch < config_.max_epochs; ++epoch) {
    rng.shuffle(order);
    double online_sq_err = 0.0;
    if (config_.batch_size == 0) {
      for (const std::size_t i : order) {
        const hdc::EncodedSampleView s = train.sample(i);
        const double y = train.target(i);
        const double prediction = predict_dot(accumulator_.values(), model_, s, train_mode);
        double error = y - prediction;
        online_sq_err += error * error;
        if (config_.error_clip > 0.0) {
          error = std::clamp(error, -config_.error_clip, config_.error_clip);
        }
        update_accumulator(accumulator_.values(), s,
                           config_.learning_rate * error *
                               update_normalizer(s, config_.query_precision),
                           config_.query_precision);
      }
    } else {
      // Batch-frozen mini-batches over the same shuffled order; the online
      // MSE still measures the pre-update (batch-frozen) predictions with
      // the unclipped error, as the per-sample loop above does.
      const std::size_t bsize = config_.batch_size;
      batch_predictions.resize(std::min(bsize, order.size()));
      std::size_t batch = 0;
      for (std::size_t b0 = 0; b0 < order.size(); b0 += bsize, ++batch) {
        const std::size_t bn = std::min(order.size(), b0 + bsize);
        const std::span<const std::size_t> idx(order.data() + b0, bn - b0);
        train_batch(train, idx, std::span<double>(batch_predictions.data(), idx.size()));
        for (std::size_t j = 0; j < idx.size(); ++j) {
          const double error = train.target(idx[j]) - batch_predictions[j];
          online_sq_err += error * error;
        }
        if (hooks != nullptr && hooks->on_batch) {
          hooks->on_batch(epoch, batch, bn);
        }
      }
    }
    // End-of-epoch binary snapshot refresh (a no-op cost-wise for the
    // full-precision mode, but keeps binary prediction modes current).
    model_.requantize(accumulator_.values());

    EpochRecord record;
    record.epoch = epoch;
    record.train_mse = online_sq_err / static_cast<double>(train.size());
    record.val_mse = evaluate_mse(val);
    report.history.push_back(record);
    report.epochs_run = epoch + 1;

    if (record.val_mse < best_val) {
      best_val = record.val_mse;
      best_accumulator = accumulator_;
      best_model = model_;
    }
    if (hooks != nullptr && hooks->on_telemetry) {
      hooks->on_telemetry(epoch, obs::snapshot());
    }
    if (stopper.update(record.val_mse)) {
      report.converged = true;
      report.stop_reason = "validation MSE stabilized";
      break;
    }
  }
  if (!report.converged) {
    report.stop_reason = "reached max_epochs";
  }
  // Keep the best validation-epoch model, not the last one.
  accumulator_ = std::move(best_accumulator);
  model_ = std::move(best_model);
  report.best_val_mse = stopper.best();
  return report;
}

}  // namespace reghd::core
