// Standalone hyperdimensional clustering.
//
// RegHD "performs clustering and regression at the same time" (§2.4); this
// class exposes the clustering half on its own — the same Eq. 8 center
// update `C_l += (1−δ_l)·S` with the saturation-aware weight, the same
// optional Hamming-search quantization (Eq. 9), and the same farthest-point
// seeding — as a k-means-style unsupervised tool over encoded data. Useful
// both as a library feature and for inspecting what RegHD's input model has
// learned.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/encoded.hpp"
#include "core/kernels.hpp"  // ClusterCenter
#include "util/aligned.hpp"

namespace reghd::core {

struct HdClusteringConfig {
  std::size_t dim = 4096;
  std::size_t clusters = 8;
  std::size_t max_epochs = 20;
  /// Stop when fewer than this fraction of assignments change in an epoch.
  double reassignment_tolerance = 0.01;
  /// Independent restarts (distinct seeds); the fit with the best cohesion
  /// wins. Guards against unlucky farthest-point seeds that place two
  /// initial centers in one mode.
  std::size_t restarts = 3;
  ClusterMode mode = ClusterMode::kFullPrecision;
  ClusterInit init = ClusterInit::kFarthestPoint;
  std::uint64_t seed = 0xC1057E12ULL;

  void validate() const;
};

/// Result of a fit: per-sample assignments plus convergence telemetry.
struct HdClusteringReport {
  std::vector<std::size_t> assignments;
  std::size_t epochs_run = 0;
  bool converged = false;
  /// Mean similarity of each sample to its assigned center (higher = tighter).
  double cohesion = 0.0;
};

class HdClustering {
 public:
  explicit HdClustering(HdClusteringConfig config);

  /// Iterative clustering over pre-encoded samples (best of
  /// config.restarts independent runs, by cohesion).
  HdClusteringReport fit(const EncodedDataset& data);

  /// Index of the most similar center. Requires a prior fit().
  [[nodiscard]] std::size_t assign(const hdc::EncodedSampleView& sample) const;

  /// Similarities of a sample to every center (cosine or Hamming, per mode).
  [[nodiscard]] std::vector<double> similarities(const hdc::EncodedSampleView& sample) const;

  [[nodiscard]] std::size_t num_clusters() const noexcept { return config_.clusters; }
  /// Snapshots (C^b, ‖C‖²) and accumulator row of center i.
  [[nodiscard]] const ClusterCenter& center(std::size_t i) const { return centers_[i]; }
  [[nodiscard]] std::span<const double> center_accumulator(std::size_t i) const {
    return {arena_.data() + i * config_.dim, config_.dim};
  }
  [[nodiscard]] const HdClusteringConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool fitted() const noexcept { return fitted_; }

 private:
  void init_centers(const EncodedDataset& data, std::uint64_t seed);
  HdClusteringReport fit_once(const EncodedDataset& data, std::uint64_t seed);
  void requantize();

  [[nodiscard]] std::span<double> accumulator(std::size_t i) {
    return {arena_.data() + i * config_.dim, config_.dim};
  }

  HdClusteringConfig config_;
  /// k×D center accumulators, one row per center (the same bank layout as
  /// MultiModelRegressor's cluster half); centers_ holds their snapshots.
  util::AlignedVector<double> arena_;
  std::vector<ClusterCenter> centers_;
  bool fitted_ = false;
};

}  // namespace reghd::core
