#include "core/sharded_training.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/telemetry.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace reghd::core {

void ShardMergeSet::add(std::size_t shard, MultiModelRegressor replica,
                        MultiModelRegressor base) {
  for (const Entry& e : entries_) {
    REGHD_CHECK(e.shard != shard, "merge set already holds shard " << shard);
  }
  entries_.push_back(Entry{shard, std::move(replica), std::move(base)});
}

ShardMergeSet ShardMergeSet::combine(const ShardMergeSet& other) const {
  ShardMergeSet out = *this;
  for (const Entry& e : other.entries_) {
    out.add(e.shard, e.replica, e.base);
  }
  return out;
}

void ShardMergeSet::apply_into(MultiModelRegressor& out) const {
  REGHD_CHECK(!entries_.empty(), "cannot apply an empty merge set");
  const obs::StageTimer timer(obs::Histo::kShardMergeNs);
  obs::count(obs::Counter::kShardMerges);

  // The one and only numeric reduction: ascending shard id, whatever order
  // the entries were added or combined in. See the file comment in the
  // header — this is what makes ⊕ exactly order-invariant.
  std::vector<const Entry*> ordered;
  ordered.reserve(entries_.size());
  for (const Entry& e : entries_) {
    ordered.push_back(&e);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Entry* a, const Entry* b) { return a->shard < b->shard; });
  for (const Entry* e : ordered) {
    out.merge_accumulate_delta(e->replica, e->base);
  }
  out.requantize();
}

ShardedTrainer::ShardedTrainer(const RegHDConfig& config) : config_(config) {
  config_.validate();
}

std::vector<std::vector<std::size_t>> ShardedTrainer::partition(std::size_t rows,
                                                                std::size_t shards) {
  REGHD_CHECK(shards > 0, "partition requires at least one shard");
  REGHD_CHECK(shards <= rows,
              "cannot spread " << rows << " rows over " << shards << " shards");
  std::vector<std::vector<std::size_t>> parts(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    parts[s].reserve(rows / shards + 1);
  }
  for (std::size_t i = 0; i < rows; ++i) {
    parts[i % shards].push_back(i);
  }
  return parts;
}

ShardedTrainReport ShardedTrainer::fit(const EncodedDataset& train,
                                       const EncodedDataset& val,
                                       const ShardedTrainConfig& cfg) {
  REGHD_CHECK(!train.empty(), "sharded fit requires training samples");
  const std::size_t requested = cfg.shards > 0 ? cfg.shards : 1;
  const std::size_t shards = std::min(requested, train.size());

  ShardedTrainReport report;
  report.shards = shards;

  if (shards == 1) {
    // One shard holds everything: a plain fit() IS the merged model, and
    // going through the merge set would perturb it (base-subtraction
    // round-off). This short-circuit is what the S = 1 bit-identity property
    // tests pin down.
    const obs::StageTimer timer(obs::Histo::kShardFitNs);
    obs::count(obs::Counter::kShardFits);
    regressor_ = std::make_unique<MultiModelRegressor>(config_);
    TrainingReport tr = regressor_->fit(train, val);
    report.shard_reports.push_back(ShardReport{0, train.size(), std::move(tr)});
  } else {
    const std::vector<std::vector<std::size_t>> parts = partition(train.size(), shards);
    std::vector<std::unique_ptr<MultiModelRegressor>> replicas(shards);
    std::vector<std::unique_ptr<MultiModelRegressor>> bases(shards);
    report.shard_reports.resize(shards);
    // Shards touch disjoint state (own replica, own base, own slice of the
    // report vector; `train` and `val` are only read), so the fan-out is
    // safe at any worker count and each shard's fit is internally
    // deterministic — results never depend on cfg.threads.
    util::parallel_for(
        shards,
        [&](std::size_t s) {
          const obs::StageTimer timer(obs::Histo::kShardFitNs);
          obs::count(obs::Counter::kShardFits);
          // The shard is a row list into the one training arena, read in
          // place: no per-shard copy of the encoded rows.
          auto replica = std::make_unique<MultiModelRegressor>(config_);
          TrainingReport tr = replica->fit(train, parts[s], val);
          // Re-derive the replica's reproducible post-initialization state:
          // fresh construction replays reset(), init_clusters replays fit()'s
          // seeding rule on the same shard. The delta (replica − base) is
          // then exactly what this shard's training added.
          auto base = std::make_unique<MultiModelRegressor>(config_);
          base->init_clusters(train, parts[s]);
          report.shard_reports[s] = ShardReport{s, parts[s].size(), std::move(tr)};
          replicas[s] = std::move(replica);
          bases[s] = std::move(base);
        },
        cfg.threads);

    ShardMergeSet set;
    for (std::size_t s = 0; s < shards; ++s) {
      set.add(s, std::move(*replicas[s]), std::move(*bases[s]));
    }
    regressor_ = std::make_unique<MultiModelRegressor>(config_);
    regressor_->init_clusters(train);
    set.apply_into(*regressor_);
  }

  report.merged_val_mse = regressor_->evaluate_mse(val);
  report.final_val_mse = report.merged_val_mse;
  refine(train, val, cfg.refine_epochs, report);
  return report;
}

void ShardedTrainer::refine(const EncodedDataset& train, const EncodedDataset& val,
                            std::size_t epochs, ShardedTrainReport& report) {
  if (epochs == 0) {
    return;
  }
  const obs::StageTimer timer(obs::Histo::kShardRefineNs);
  util::Rng rng(config_.seed ^ 0x52464E45ULL);  // "RFNE"
  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  // The merged state competes in the keep-best rule: refining can only ship
  // a model at least as good (on validation) as the merge produced.
  MultiModelRegressor::State best = regressor_->state();
  double best_val = report.merged_val_mse;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    obs::count(obs::Counter::kShardRefineEpochs);
    rng.shuffle(order);
    EpochRecord record;
    record.epoch = epoch;
    record.train_mse = regressor_->train_epoch(train, order, epoch) /
                       static_cast<double>(train.size());
    record.val_mse = regressor_->evaluate_mse(val);
    report.refine_history.push_back(record);
    if (record.val_mse < best_val) {
      best_val = record.val_mse;
      best = regressor_->state();
    }
  }
  regressor_->restore(std::move(best));
  report.final_val_mse = best_val;
}

const MultiModelRegressor& ShardedTrainer::regressor() const {
  REGHD_CHECK(regressor_ != nullptr, "sharded trainer has no model before fit()");
  return *regressor_;
}

std::unique_ptr<MultiModelRegressor> ShardedTrainer::take_regressor() {
  REGHD_CHECK(regressor_ != nullptr, "sharded trainer has no model before fit()");
  return std::move(regressor_);
}

OnlineRegHD train_online_sharded(const OnlineConfig& config,
                                 std::span<const double> features_flat,
                                 std::span<const double> targets,
                                 std::size_t num_features,
                                 const ShardedTrainConfig& cfg) {
  REGHD_CHECK(num_features > 0, "sharded online training requires features");
  REGHD_CHECK(features_flat.size() == targets.size() * num_features,
              "feature block has " << features_flat.size() << " values, expected "
                                   << targets.size() << " readings x " << num_features
                                   << " features");
  const std::size_t rows = targets.size();
  REGHD_CHECK(rows > 0, "sharded online training requires at least one reading");
  const std::size_t requested = cfg.shards > 0 ? cfg.shards : 1;
  const std::size_t shards = std::min(requested, rows);
  const std::vector<std::vector<std::size_t>> parts =
      ShardedTrainer::partition(rows, shards);

  std::vector<std::unique_ptr<OnlineRegHD>> replicas(shards);
  util::parallel_for(
      shards,
      [&](std::size_t s) {
        const obs::StageTimer timer(obs::Histo::kShardFitNs);
        obs::count(obs::Counter::kShardFits);
        auto learner = std::make_unique<OnlineRegHD>(config, num_features);
        for (const std::size_t r : parts[s]) {
          learner->update(features_flat.subspan(r * num_features, num_features),
                          targets[r]);
        }
        replicas[s] = std::move(learner);
      },
      cfg.threads);

  std::vector<OnlineShardReplica> refs(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    refs[s] = OnlineShardReplica{s, replicas[s].get()};
  }
  return OnlineRegHD::merge_replicas(refs);
}

}  // namespace reghd::core
