#include "core/single_model.hpp"

#include <limits>
#include <numeric>
#include <utility>

#include "core/early_stopping.hpp"
#include "obs/telemetry.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace reghd::core {

namespace {

RegHDConfig one_model(RegHDConfig config) {
  config.models = 1;
  return config;
}

}  // namespace

SingleModelRegressor::SingleModelRegressor(const RegHDConfig& config)
    : multi_(one_model(config)) {}

TrainingReport SingleModelRegressor::fit(const EncodedDataset& train,
                                         const EncodedDataset& val,
                                         const TrainingHooks* hooks) {
  const RegHDConfig& cfg = config();
  REGHD_CHECK(!train.empty(), "cannot fit on an empty training set");
  REGHD_CHECK(!val.empty(), "single-model fit requires a validation set for early stopping");
  REGHD_CHECK(train.dim() == cfg.dim,
              "training data dim " << train.dim() << " != configured dim " << cfg.dim);

  reset();
  // Eq. 2's own shuffle stream. MultiModelRegressor::fit draws its epochs
  // from Rng(seed ^ "EPOCH"), which lands this learner's fits elsewhere.
  util::Rng rng(cfg.seed);
  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  TrainingReport report;
  EarlyStopper stopper(cfg.tolerance, cfg.patience);
  MultiModelRegressor::State best = multi_.state();
  double best_val = std::numeric_limits<double>::infinity();

  for (std::size_t epoch = 0; epoch < cfg.max_epochs; ++epoch) {
    rng.shuffle(order);
    EpochRecord record;
    record.epoch = epoch;
    record.train_mse =
        multi_.train_epoch(train, order, epoch, hooks) / static_cast<double>(train.size());
    record.val_mse = evaluate_mse(val);
    report.history.push_back(record);
    report.epochs_run = epoch + 1;

    if (record.val_mse < best_val) {
      best_val = record.val_mse;
      best = multi_.state();
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
  multi_.restore(std::move(best));
  report.best_val_mse = stopper.best();
  return report;
}

}  // namespace reghd::core
