#include "core/hd_clustering.hpp"

#include <algorithm>
#include <cmath>

#include "hdc/ops.hpp"
#include "hdc/random_hv.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace reghd::core {

void HdClusteringConfig::validate() const {
  REGHD_CHECK(dim >= 64, "clustering dim must be at least 64, got " << dim);
  REGHD_CHECK(clusters >= 1, "clustering requires at least one cluster");
  REGHD_CHECK(max_epochs >= 1, "max_epochs must be at least 1");
  REGHD_CHECK(reassignment_tolerance >= 0.0 && reassignment_tolerance < 1.0,
              "reassignment_tolerance must lie in [0,1)");
}

HdClustering::HdClustering(HdClusteringConfig config) : config_(config) {
  config_.validate();
}

void HdClustering::requantize() {
  for (std::size_t i = 0; i < centers_.size(); ++i) {
    centers_[i].requantize(accumulator(i));
  }
}

void HdClustering::init_centers(const EncodedDataset& data, std::uint64_t seed) {
  arena_.assign(config_.clusters * config_.dim, 0.0);
  centers_.assign(config_.clusters, ClusterCenter{});
  util::Rng rng(seed);

  if (config_.init == ClusterInit::kRandom || config_.clusters == 1 ||
      data.size() < config_.clusters) {
    for (std::size_t c = 0; c < config_.clusters; ++c) {
      // The row is zero, so adding the packed ±1 vector writes it exactly.
      hdc::add_scaled(accumulator(c), hdc::random_bipolar(config_.dim, rng), 1.0);
    }
    requantize();
    return;
  }

  // k-means++-style seeding: subsequent centers are sampled with probability
  // proportional to squared dissimilarity from the chosen set. Unlike
  // deterministic farthest-point, restarts explore different seedings, so
  // the best-of-restarts selection can escape an unlucky first draw.
  std::vector<std::size_t> chosen;
  chosen.push_back(static_cast<std::size_t>(rng.uniform_index(data.size())));
  std::vector<double> max_sim(data.size(), -2.0);
  std::vector<double> weight(data.size());
  while (chosen.size() < config_.clusters) {
    const hdc::BinaryHVView last = data.sample(chosen.back()).binary;
    double total = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      max_sim[i] = std::max(max_sim[i], hdc::hamming_similarity(data.sample(i).binary, last));
      const double dissim = std::max(0.0, 1.0 - max_sim[i]);
      weight[i] = dissim * dissim;
      total += weight[i];
    }
    std::size_t pick = 0;
    if (total > 0.0) {
      double r = rng.uniform() * total;
      for (std::size_t i = 0; i < data.size(); ++i) {
        r -= weight[i];
        if (r <= 0.0) {
          pick = i;
          break;
        }
      }
    } else {
      pick = static_cast<std::size_t>(rng.uniform_index(data.size()));
    }
    chosen.push_back(pick);
  }
  for (std::size_t c = 0; c < config_.clusters; ++c) {
    const hdc::BinaryHVView init = data.sample(chosen[c]).binary;
    const std::span<double> row = accumulator(c);
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = init.bipolar(j);
    }
  }
  requantize();
}

std::vector<double> HdClustering::similarities(const hdc::EncodedSampleView& sample) const {
  REGHD_CHECK(!centers_.empty(), "clustering must be fitted (or initialized) first");
  REGHD_CHECK(sample.real.dim() == config_.dim,
              "sample dim " << sample.real.dim() << " != clustering dim " << config_.dim);
  std::vector<double> sims(centers_.size());
  if (config_.mode == ClusterMode::kFullPrecision) {
    const double qn = sample.real_norm;
    for (std::size_t i = 0; i < centers_.size(); ++i) {
      const double cn = std::sqrt(centers_[i].norm2);
      sims[i] = (cn == 0.0 || qn == 0.0)
                    ? 0.0
                    : hdc::dot(hdc::RealHVView(center_accumulator(i)), sample.real) / (cn * qn);
    }
  } else {
    for (std::size_t i = 0; i < centers_.size(); ++i) {
      sims[i] = hdc::hamming_similarity(centers_[i].binary, sample.binary);
    }
  }
  return sims;
}

std::size_t HdClustering::assign(const hdc::EncodedSampleView& sample) const {
  const auto sims = similarities(sample);
  return static_cast<std::size_t>(
      std::distance(sims.begin(), std::max_element(sims.begin(), sims.end())));
}

HdClusteringReport HdClustering::fit(const EncodedDataset& data) {
  REGHD_CHECK(!data.empty(), "cannot cluster an empty dataset");
  REGHD_CHECK(data.dim() == config_.dim,
              "data dim " << data.dim() << " != clustering dim " << config_.dim);
  REGHD_CHECK(config_.restarts >= 1, "clustering requires at least one restart");

  HdClusteringReport best_report;
  util::AlignedVector<double> best_arena;
  std::vector<ClusterCenter> best_centers;
  double best_cohesion = -2.0;
  for (std::size_t r = 0; r < config_.restarts; ++r) {
    HdClusteringReport report = fit_once(data, config_.seed + 0x9E3779B9ULL * r);
    if (report.cohesion > best_cohesion) {
      best_cohesion = report.cohesion;
      best_report = std::move(report);
      best_arena = arena_;
      best_centers = centers_;
    }
  }
  arena_ = std::move(best_arena);
  centers_ = std::move(best_centers);
  return best_report;
}

HdClusteringReport HdClustering::fit_once(const EncodedDataset& data, std::uint64_t seed) {
  init_centers(data, seed);
  fitted_ = true;

  HdClusteringReport report;
  report.assignments.assign(data.size(), config_.clusters);  // sentinel: unassigned

  for (std::size_t epoch = 0; epoch < config_.max_epochs; ++epoch) {
    std::size_t reassigned = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const hdc::EncodedSampleView s = data.sample(i);
      const auto sims = similarities(s);
      const auto winner = static_cast<std::size_t>(
          std::distance(sims.begin(), std::max_element(sims.begin(), sims.end())));
      if (winner != report.assignments[i]) {
        ++reassigned;
        report.assignments[i] = winner;
      }
      // Eq. 8/9: saturation-aware center update on the integer accumulator.
      const double weight = 1.0 - sims[winner];
      if (weight != 0.0) {
        double& norm2 = centers_[winner].norm2;
        const double dot_cs = hdc::dot(hdc::RealHVView(accumulator(winner)), s.real);
        hdc::add_scaled(accumulator(winner), s.real, weight);
        norm2 += 2.0 * weight * dot_cs + weight * weight * s.real_norm2;
        norm2 = std::max(norm2, 0.0);
      }
    }
    requantize();
    report.epochs_run = epoch + 1;

    const double frac = static_cast<double>(reassigned) / static_cast<double>(data.size());
    // The first epoch reassigns everything (sentinel); never stop on it.
    if (epoch > 0 && frac <= config_.reassignment_tolerance) {
      report.converged = true;
      break;
    }
  }

  // Final pass with the converged centers: recompute assignments (the
  // in-epoch ones lag behind the last center updates) and measure cohesion.
  double cohesion = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto sims = similarities(data.sample(i));
    const auto winner = static_cast<std::size_t>(
        std::distance(sims.begin(), std::max_element(sims.begin(), sims.end())));
    report.assignments[i] = winner;
    cohesion += sims[winner];
  }
  report.cohesion = cohesion / static_cast<double>(data.size());
  return report;
}

}  // namespace reghd::core
