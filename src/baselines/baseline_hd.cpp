#include "baselines/baseline_hd.hpp"

#include <algorithm>
#include <cmath>

#include "hdc/ops.hpp"
#include "util/check.hpp"

namespace reghd::baselines {

BaselineHd::BaselineHd(BaselineHdConfig config) : config_(config) {
  REGHD_CHECK(config_.dim >= 64, "dim must be at least 64");
  REGHD_CHECK(config_.bins >= 2, "Baseline-HD requires at least two output bins");
  REGHD_CHECK(config_.epochs >= 1, "epochs must be at least 1");
}

std::size_t BaselineHd::bin_of(double target) const {
  const double clamped = std::clamp(target, target_min_, target_max_);
  const double t = (clamped - target_min_) / (target_max_ - target_min_);
  const auto idx = static_cast<std::size_t>(t * static_cast<double>(config_.bins));
  return std::min(idx, config_.bins - 1);
}

double BaselineHd::bin_center(std::size_t bin) const {
  REGHD_CHECK(bin < config_.bins, "bin index out of range");
  const double width = (target_max_ - target_min_) / static_cast<double>(config_.bins);
  return target_min_ + (static_cast<double>(bin) + 0.5) * width;
}

std::size_t BaselineHd::classify(const hdc::EncodedSample& sample) const {
  std::size_t best = 0;
  double best_sim = -2.0;
  for (std::size_t b = 0; b < class_hvs_.size(); ++b) {
    const double sim = hdc::cosine(class_hvs_[b], sample.binary);
    if (sim > best_sim) {
      best_sim = sim;
      best = b;
    }
  }
  return best;
}

void BaselineHd::fit(const data::Dataset& train) {
  REGHD_CHECK(train.size() >= 2, "Baseline-HD requires at least two samples");

  data::Dataset scaled = train;
  feature_scaler_.fit(scaled);
  feature_scaler_.transform(scaled);

  target_min_ = scaled.target(0);
  target_max_ = scaled.target(0);
  for (const double y : scaled.targets()) {
    target_min_ = std::min(target_min_, y);
    target_max_ = std::max(target_max_, y);
  }
  if (target_min_ == target_max_) {
    target_max_ = target_min_ + 1.0;  // constant target: one wide bin suffices
  }

  hdc::EncoderConfig enc_cfg;
  enc_cfg.kind = config_.encoder;
  enc_cfg.input_dim = scaled.num_features();
  enc_cfg.dim = config_.dim;
  enc_cfg.seed = config_.seed;
  encoder_ = hdc::make_encoder(enc_cfg);

  // Encode once; reuse across refinement passes.
  std::vector<hdc::EncodedSample> encoded;
  std::vector<std::size_t> bins;
  encoded.reserve(scaled.size());
  bins.reserve(scaled.size());
  for (std::size_t i = 0; i < scaled.size(); ++i) {
    encoded.push_back(encoder_->encode(scaled.row(i)));
    bins.push_back(bin_of(scaled.target(i)));
  }

  // Single-pass bundling.
  class_hvs_.assign(config_.bins, hdc::RealHV(config_.dim));
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    hdc::add_scaled(class_hvs_[bins[i]], encoded[i].binary, 1.0);
  }

  // Perceptron-style corrective refinement (standard iterative HD training):
  // misclassified samples are added to the right class and subtracted from
  // the predicted one.
  for (std::size_t epoch = 1; epoch < config_.epochs; ++epoch) {
    std::size_t mistakes = 0;
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      const std::size_t predicted = classify(encoded[i]);
      if (predicted != bins[i]) {
        hdc::add_scaled(class_hvs_[bins[i]], encoded[i].binary, 1.0);
        hdc::add_scaled(class_hvs_[predicted], encoded[i].binary, -1.0);
        ++mistakes;
      }
    }
    if (mistakes == 0) {
      break;
    }
  }
}

double BaselineHd::predict(std::span<const double> features) const {
  REGHD_CHECK(encoder_ != nullptr, "Baseline-HD must be fitted before prediction");
  const std::vector<double> x = feature_scaler_.transform_row(features);
  const hdc::EncodedSample sample = encoder_->encode(x);
  return bin_center(classify(sample));
}

}  // namespace reghd::baselines
