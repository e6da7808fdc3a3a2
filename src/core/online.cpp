#include "core/online.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/telemetry.hpp"
#include "util/check.hpp"

namespace reghd::core {

OnlineRegHD::OnlineRegHD(OnlineConfig config, std::size_t num_features)
    : config_(std::move(config)), model_(config_.reghd), feature_stats_(num_features) {
  REGHD_CHECK(num_features > 0, "online learner requires at least one feature");
  REGHD_CHECK(config_.decay > 0.0 && config_.decay <= 1.0,
              "decay must lie in (0,1], got " << config_.decay);
  config_.encoder.input_dim = num_features;
  config_.encoder.dim = config_.reghd.dim;
  encoder_ = hdc::make_encoder(config_.encoder);
}

void OnlineRegHD::set_projection_storage(hdc::ProjectionStorage storage) {
  if (config_.encoder.projection_storage == storage) {
    return;
  }
  config_.encoder.projection_storage = storage;
  // Rebuilding from the (updated) config reproduces the identical encoder —
  // every weight derives from the counter-based kernel either way.
  encoder_ = hdc::make_encoder(config_.encoder);
}

OnlineRegHD OnlineRegHD::merge_replicas(std::span<const OnlineShardReplica> replicas) {
  REGHD_CHECK(!replicas.empty(), "online merge requires at least one replica");
  const obs::StageTimer timer(obs::Histo::kShardMergeNs);
  obs::count(obs::Counter::kShardMerges);

  // Canonical reduction order: ascending shard id, regardless of span order.
  // Float accumulation then happens in exactly one sequence for every
  // permutation of the input, making the merge order-invariant bit for bit.
  std::vector<const OnlineShardReplica*> ordered;
  ordered.reserve(replicas.size());
  for (const OnlineShardReplica& r : replicas) {
    REGHD_CHECK(r.learner != nullptr, "online merge given a null replica");
    ordered.push_back(&r);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const OnlineShardReplica* a, const OnlineShardReplica* b) {
              return a->shard < b->shard;
            });
  for (std::size_t i = 1; i < ordered.size(); ++i) {
    REGHD_CHECK(ordered[i - 1]->shard != ordered[i]->shard,
                "online merge given duplicate shard id " << ordered[i]->shard);
  }
  const OnlineRegHD& first = *ordered.front()->learner;
  const std::size_t nf = first.num_features();
  const std::size_t k = first.model().num_models();
  for (const OnlineShardReplica* r : ordered) {
    REGHD_CHECK(r->learner->num_features() == nf &&
                    r->learner->model().num_models() == k &&
                    r->learner->config().reghd.dim == first.config().reghd.dim &&
                    r->learner->config().reghd.seed == first.config().reghd.seed,
                "online merge requires replicas of one stream configuration");
  }
  if (ordered.size() == 1) {
    // Verbatim adoption: a copy keeps the replica's exact state (including
    // snapshots that may be stale mid-requantize-interval), so S = 1 stays
    // bit-identical to an unsharded stream. Re-deriving anything would not.
    return first;
  }

  // Every replica was constructed from the same config, so they share one
  // post-construction base state (zero models, seeded random clusters) —
  // which `out` is still in. Summing per-replica deltas against that base
  // bundles what each shard's training added.
  OnlineRegHD out(first.config(), nf);
  const MultiModelRegressor base(first.config().reghd);
  for (const OnlineShardReplica* r : ordered) {
    out.model_.merge_accumulate_delta(r->learner->model(), base);
  }
  out.model_.requantize();

  std::vector<util::RunningStats> feature_stats(nf);
  util::RunningStats target_stats;
  std::size_t seen = 0;
  std::size_t since = 0;
  for (const OnlineShardReplica* r : ordered) {
    for (std::size_t f = 0; f < nf; ++f) {
      feature_stats[f].merge(r->learner->feature_stats()[f]);
    }
    target_stats.merge(r->learner->target_stats());
    seen += r->learner->samples_seen();
    since += r->learner->since_requantize();
  }
  if (out.config_.requantize_every > 0) {
    since %= out.config_.requantize_every;
  }
  out.restore_state(std::move(feature_stats), target_stats, seen, since);
  return out;
}

void OnlineRegHD::restore_state(std::vector<util::RunningStats> feature_stats,
                                util::RunningStats target_stats, std::size_t seen,
                                std::size_t since_requantize) {
  REGHD_CHECK(feature_stats.size() == feature_stats_.size(),
              "checkpoint has " << feature_stats.size() << " feature statistics, stream has "
                                << feature_stats_.size() << " features");
  feature_stats_ = std::move(feature_stats);
  target_stats_ = target_stats;
  seen_ = seen;
  since_requantize_ = since_requantize;
}

hdc::EncodedSample OnlineRegHD::encode(std::span<const double> features) const {
  REGHD_CHECK(features.size() == feature_stats_.size(),
              "reading has " << features.size() << " features, stream expects "
                             << feature_stats_.size());
  if (!config_.adaptive_scaling) {
    return encoder_->encode(features);
  }
  std::vector<double> scaled(features.size());
  for (std::size_t k = 0; k < features.size(); ++k) {
    const double sd = feature_stats_[k].stddev();
    scaled[k] = sd > 0.0 ? (features[k] - feature_stats_[k].mean()) / sd : 0.0;
  }
  return encoder_->encode(scaled);
}

double OnlineRegHD::scale_target(double y) const {
  if (!config_.adaptive_scaling) {
    return y;
  }
  const double sd = target_stats_.stddev();
  return sd > 0.0 ? (y - target_stats_.mean()) / sd : 0.0;
}

double OnlineRegHD::unscale_target(double y_scaled) const {
  if (!config_.adaptive_scaling) {
    return y_scaled;
  }
  const double sd = target_stats_.stddev();
  return sd > 0.0 ? y_scaled * sd + target_stats_.mean()
                  : target_stats_.mean();
}

double OnlineRegHD::predict(std::span<const double> features) const {
  std::vector<double> scaled;
  return predict_reusing(features, scaled);
}

double OnlineRegHD::predict_reusing(std::span<const double> features,
                                    std::vector<double>& scaled_scratch) const {
  REGHD_CHECK(features.size() == feature_stats_.size(),
              "reading has " << features.size() << " features, stream expects "
                             << feature_stats_.size());
  if (cold()) {
    // Cold start: running statistics are not trustworthy yet. The boundary
    // matches update()'s training gate (see the warmup convention note in
    // online.hpp): while no reading has trained the model, fall back to the
    // running target mean rather than an untrained model's output.
    obs::count(obs::Counter::kOnlineColdPredicts);
    return cold_prediction();
  }
  if (!config_.adaptive_scaling) {
    return unscale_target(model_.predict_one(*encoder_, features));
  }
  // Standardize exactly like encode(), then hand the scaled reading to the
  // fused single-query path (bit-identical to predict(encode(features)),
  // falling back internally when the mode combination is not fusable).
  scaled_scratch.resize(features.size());
  for (std::size_t k = 0; k < features.size(); ++k) {
    const double sd = feature_stats_[k].stddev();
    scaled_scratch[k] = sd > 0.0 ? (features[k] - feature_stats_[k].mean()) / sd : 0.0;
  }
  return unscale_target(model_.predict_one(*encoder_, scaled_scratch));
}

void OnlineRegHD::standardize_rows_into(std::span<const double> rows_flat,
                                        std::size_t num_rows,
                                        std::span<double> out) const {
  const std::size_t nf = feature_stats_.size();
  REGHD_CHECK(rows_flat.size() == num_rows * nf,
              "feature block has " << rows_flat.size() << " values, expected "
                                   << num_rows << " readings x " << nf << " features");
  REGHD_CHECK(out.size() >= num_rows * nf,
              "standardize output span holds " << out.size() << " values for "
                                              << num_rows * nf);
  if (!config_.adaptive_scaling) {
    std::copy(rows_flat.begin(), rows_flat.end(), out.begin());
    return;
  }
  // Element transform identical to predict_reusing's; loop order is
  // irrelevant to the values.
  for (std::size_t r = 0; r < num_rows; ++r) {
    for (std::size_t k = 0; k < nf; ++k) {
      const double sd = feature_stats_[k].stddev();
      out[r * nf + k] =
          sd > 0.0 ? (rows_flat[r * nf + k] - feature_stats_[k].mean()) / sd : 0.0;
    }
  }
}

namespace {

/// Rejects a labelled block holding a NaN or infinity before the learner
/// consumes any of it: one such value would otherwise enter the Welford
/// statistics and, through standardization, every later encoding.
void require_finite(std::span<const double> features, std::span<const double> targets) {
  const auto finite = [](double v) { return std::isfinite(v); };
  if (!std::ranges::all_of(features, finite) || !std::ranges::all_of(targets, finite)) {
    obs::count(obs::Counter::kOnlineNonfiniteRejects);
    throw std::invalid_argument("online update: non-finite feature or target");
  }
}

}  // namespace

double OnlineRegHD::update(std::span<const double> features, double target) {
  require_finite(features, {&target, 1});
  const obs::StageTimer timer(obs::Histo::kOnlineUpdateNs);
  obs::count(obs::Counter::kOnlineUpdates);
  // Member scratch, not predict(): identical math, but steady-state updates
  // never construct a standardization vector (this is the serving trainer's
  // per-sample path).
  const double prediction = predict_reusing(features, update_scratch_);

  // Consume the label: update statistics first so the very first readings
  // produce usable scales, then train.
  if (config_.adaptive_scaling) {
    for (std::size_t k = 0; k < features.size(); ++k) {
      feature_stats_[k].add(features[k]);
    }
    target_stats_.add(target);
  }
  ++seen_;
  if (config_.adaptive_scaling && seen_ <= config_.warmup) {
    obs::count(obs::Counter::kOnlineWarmupSkips);
    return prediction;  // still warming up; no model update yet
  }

  if (config_.decay < 1.0) {
    obs::count(obs::Counter::kOnlineDecays);
    model_.decay_models(config_.decay);
  }
  // Standardize with the post-consumption statistics (the transform encode()
  // applies) into the member scratch, then re-encode through the one-reading
  // arena: assign_rows is bit-identical to encode(row) and reuses its plane
  // storage, so the train side of the update is allocation-free too.
  update_scratch_.resize(features.size());
  standardize_rows_into(features, 1, update_scratch_);
  update_arena_.assign_rows(*encoder_, {update_scratch_.data(), features.size()}, 1, 1);
  model_.train_step(update_arena_.sample(0), scale_target(target));
  if (config_.requantize_every > 0 && ++since_requantize_ >= config_.requantize_every) {
    model_.requantize();
    since_requantize_ = 0;
  }
  return prediction;
}

std::vector<double> OnlineRegHD::update_batch(std::span<const double> features_flat,
                                              std::span<const double> targets) {
  const std::size_t nf = feature_stats_.size();
  REGHD_CHECK(features_flat.size() == targets.size() * nf,
              "feature block has " << features_flat.size() << " values, expected "
                                   << targets.size() << " readings x " << nf << " features");
  const std::size_t n = targets.size();
  std::vector<double> predictions(n);
  if (n == 0) {
    return predictions;
  }
  require_finite(features_flat, targets);
  const obs::StageTimer timer(obs::Histo::kOnlineBatchNs);
  obs::count(obs::Counter::kOnlineUpdates, n);

  // 1) Block-frozen prequential predictions: every reading is scored against
  //    the model, statistics and warmup state at block entry, before any
  //    label in the block is consumed.
  for (std::size_t j = 0; j < n; ++j) {
    predictions[j] = predict(features_flat.subspan(j * nf, nf));
  }

  // 2) Consume the labels in reading order: statistics and warmup accounting
  //    advance exactly as n update() calls would.
  std::vector<std::size_t> trained;  // readings past warmup, trained below
  trained.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (config_.adaptive_scaling) {
      const std::span<const double> f = features_flat.subspan(j * nf, nf);
      for (std::size_t k = 0; k < nf; ++k) {
        feature_stats_[k].add(f[k]);
      }
      target_stats_.add(targets[j]);
    }
    ++seen_;
    if (config_.adaptive_scaling && seen_ <= config_.warmup) {
      obs::count(obs::Counter::kOnlineWarmupSkips);
      continue;  // still warming up; no model update for this reading
    }
    trained.push_back(j);
  }
  if (trained.empty()) {
    return predictions;
  }

  // 3) Decay once per trained reading (the same total forgetting as the
  //    sequential protocol), encode the trained readings with the post-block
  //    statistics, and train them as one batch-frozen mini-batch.
  if (config_.decay < 1.0) {
    obs::count(obs::Counter::kOnlineDecays, trained.size());
    for (std::size_t t = 0; t < trained.size(); ++t) {
      model_.decay_models(config_.decay);
    }
  }
  EncodedDataset block;
  for (const std::size_t j : trained) {
    block.add(encode(features_flat.subspan(j * nf, nf)), scale_target(targets[j]));
  }
  std::vector<std::size_t> idx(block.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::vector<double> frozen(block.size());
  model_.train_batch(block, idx, frozen);
  if (config_.requantize_every > 0) {
    // The sequential protocol requantizes after every `requantize_every`-th
    // trained reading, i.e. ⌊(since + trained)/every⌋ times across this block,
    // and leaves the counter at (since + trained) mod every. requantize() is a
    // pure re-derivation of the binary snapshot from the accumulator, so one
    // call at block end reproduces the final state of all intermediate calls;
    // the counter must still advance by the modulo, not reset to zero, or
    // follow-on updates requantize at the wrong step.
    const std::size_t total = since_requantize_ + trained.size();
    if (total >= config_.requantize_every) {
      model_.requantize();
    }
    since_requantize_ = total % config_.requantize_every;
  }
  return predictions;
}

}  // namespace reghd::core
