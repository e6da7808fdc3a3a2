#include "core/hd_classifier.hpp"

#include <algorithm>
#include <limits>

#include "hdc/ops.hpp"
#include "util/check.hpp"

namespace reghd::core {

void HdClassifierConfig::validate() const {
  REGHD_CHECK(dim >= 64, "classifier dim must be at least 64, got " << dim);
  REGHD_CHECK(classes >= 2, "classifier requires at least two classes");
  REGHD_CHECK(max_epochs >= 1, "max_epochs must be at least 1");
  REGHD_CHECK(patience >= 1, "patience must be at least 1");
}

HdClassifier::HdClassifier(HdClassifierConfig config) : config_(config) {
  config_.validate();
  class_hvs_.assign(config_.classes, hdc::RealHV(config_.dim));
  class_snapshots_.assign(config_.classes, hdc::BinaryHV(config_.dim));
}

void HdClassifier::requantize() {
  for (std::size_t c = 0; c < config_.classes; ++c) {
    class_snapshots_[c] = class_hvs_[c].sign_packed();
  }
}

std::vector<double> HdClassifier::scores(const hdc::EncodedSampleView& sample) const {
  REGHD_CHECK(sample.real.dim() == config_.dim,
              "sample dim " << sample.real.dim() << " != classifier dim " << config_.dim);
  std::vector<double> out(config_.classes);
  if (config_.quantized) {
    for (std::size_t c = 0; c < config_.classes; ++c) {
      out[c] = hdc::hamming_similarity(class_snapshots_[c], sample.binary);
    }
  } else {
    for (std::size_t c = 0; c < config_.classes; ++c) {
      out[c] = hdc::cosine(class_hvs_[c], sample.binary);
    }
  }
  return out;
}

std::size_t HdClassifier::predict(const hdc::EncodedSampleView& sample) const {
  const auto s = scores(sample);
  return static_cast<std::size_t>(
      std::distance(s.begin(), std::max_element(s.begin(), s.end())));
}

double HdClassifier::accuracy(const EncodedDataset& data,
                              std::span<const std::size_t> labels) const {
  REGHD_CHECK(data.size() == labels.size(), "label count must match sample count");
  REGHD_CHECK(!data.empty(), "cannot score an empty dataset");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    correct += predict(data.sample(i)) == labels[i] ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

HdClassifierReport HdClassifier::fit(const EncodedDataset& train,
                                     std::span<const std::size_t> labels,
                                     const EncodedDataset& val,
                                     std::span<const std::size_t> val_labels) {
  REGHD_CHECK(!train.empty(), "cannot fit on an empty training set");
  REGHD_CHECK(train.size() == labels.size(), "label count must match sample count");
  REGHD_CHECK(!val.empty() && val.size() == val_labels.size(),
              "classifier fit requires a labelled validation set");
  REGHD_CHECK(train.dim() == config_.dim,
              "training data dim " << train.dim() << " != configured dim " << config_.dim);
  for (const std::size_t label : labels) {
    REGHD_CHECK(label < config_.classes, "label " << label << " out of range for "
                                                  << config_.classes << " classes");
  }

  // Single-pass bundling.
  class_hvs_.assign(config_.classes, hdc::RealHV(config_.dim));
  for (std::size_t i = 0; i < train.size(); ++i) {
    hdc::add_scaled(class_hvs_[labels[i]], train.sample(i).binary, 1.0);
  }
  requantize();
  fitted_ = true;

  HdClassifierReport report;
  auto best_hvs = class_hvs_;
  double best_acc = -1.0;
  std::size_t stall = 0;

  for (std::size_t epoch = 0; epoch < config_.max_epochs; ++epoch) {
    // Perceptron-style corrective pass: misclassified samples are added to
    // their class and subtracted from the predicted one.
    std::size_t mistakes = 0;
    for (std::size_t i = 0; i < train.size(); ++i) {
      const std::size_t predicted = predict(train.sample(i));
      if (predicted != labels[i]) {
        hdc::add_scaled(class_hvs_[labels[i]], train.sample(i).binary, 1.0);
        hdc::add_scaled(class_hvs_[predicted], train.sample(i).binary, -1.0);
        ++mistakes;
      }
    }
    requantize();
    report.epochs_run = epoch + 1;

    const double acc = accuracy(val, val_labels);
    report.val_accuracy_history.push_back(acc);
    if (acc > best_acc) {
      best_acc = acc;
      best_hvs = class_hvs_;
      stall = 0;
    } else {
      ++stall;
    }
    if (mistakes == 0 || stall >= config_.patience) {
      report.converged = true;
      break;
    }
  }

  class_hvs_ = std::move(best_hvs);
  requantize();
  report.best_val_accuracy = best_acc;
  return report;
}

}  // namespace reghd::core
