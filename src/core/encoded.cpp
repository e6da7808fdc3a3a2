#include "core/encoded.hpp"

#include "util/check.hpp"

namespace reghd::core {

void EncodedDataset::assign_rows(const hdc::Encoder& encoder,
                                 std::span<const double> rows_flat,
                                 std::size_t num_rows, std::size_t threads) {
  dim_ = encoder.dim();
  words_ = (dim_ + 63) / 64;
  // clear() + resize() reuses existing plane capacity (steady-state
  // re-encoding of admission batches, num_rows bounded by the batcher's cap,
  // never touches the allocator after the first full-size batch), never
  // copies stale rows on regrowth, and writes nothing: the planes are left
  // uninitialized and the encoder zeroes and fills each row in the worker
  // that encodes it (see EncodedArenaRef).
  targets_.assign(num_rows, 0.0);
  real_.clear();
  real_.resize(num_rows * dim_);
  binary_.clear();
  binary_.resize(num_rows * words_);
  norm_.assign(num_rows, 0.0);
  norm2_.assign(num_rows, 0.0);
  const hdc::EncodedArenaRef arena{real_.data(), binary_.data(), norm_.data(),
                                   norm2_.data(), dim_, words_};
  encoder.encode_batch_into(rows_flat, num_rows, arena, threads);
}

EncodedDataset EncodedDataset::build(const hdc::Encoder& encoder,
                                     std::span<const double> rows_flat,
                                     std::size_t num_rows, std::vector<double> targets,
                                     std::size_t threads) {
  EncodedDataset out;
  out.assign_rows(encoder, rows_flat, num_rows, threads);
  out.targets_ = std::move(targets);
  return out;
}

EncodedDataset EncodedDataset::from(const hdc::Encoder& encoder,
                                    const data::Dataset& dataset, std::size_t threads) {
  REGHD_CHECK(dataset.num_features() == encoder.input_dim(),
              "dataset has " << dataset.num_features() << " features, encoder expects "
                             << encoder.input_dim());
  return build(encoder, dataset.features_flat(), dataset.size(),
               {dataset.targets().begin(), dataset.targets().end()}, threads);
}

EncodedDataset EncodedDataset::from_rows(const hdc::Encoder& encoder,
                                         std::span<const double> rows_flat,
                                         std::size_t num_rows, std::size_t threads) {
  return build(encoder, rows_flat, num_rows, std::vector<double>(num_rows, 0.0),
               threads);
}

EncodedDataset EncodedDataset::subset(std::span<const std::size_t> rows) const {
  EncodedDataset out;
  out.dim_ = dim_;
  out.words_ = words_;
  out.real_.reserve(rows.size() * dim_);
  out.binary_.reserve(rows.size() * words_);
  out.norm_.reserve(rows.size());
  out.norm2_.reserve(rows.size());
  out.targets_.reserve(rows.size());
  for (const std::size_t r : rows) {
    REGHD_CHECK(r < size(), "subset row " << r << " out of range for " << size()
                                          << " samples");
    out.real_.insert(out.real_.end(), real_.data() + r * dim_,
                     real_.data() + (r + 1) * dim_);
    out.binary_.insert(out.binary_.end(), binary_.data() + r * words_,
                       binary_.data() + (r + 1) * words_);
    out.norm_.push_back(norm_[r]);
    out.norm2_.push_back(norm2_[r]);
    out.targets_.push_back(targets_[r]);
  }
  return out;
}

void EncodedDataset::add(const hdc::EncodedSample& sample, double target) {
  REGHD_CHECK(empty() || sample.real.dim() == dim_,
              "encoded sample dimensionality " << sample.real.dim()
                                               << " does not match dataset dim " << dim_);
  if (empty()) {
    dim_ = sample.real.dim();
    words_ = (dim_ + 63) / 64;
    real_.clear();
    binary_.clear();
    norm_.clear();
    norm2_.clear();
  }
  REGHD_CHECK(sample.binary.dim() == dim_,
              "encoded sample representations disagree on dimensionality");
  real_.insert(real_.end(), sample.real.values().begin(), sample.real.values().end());
  binary_.insert(binary_.end(), sample.binary.words().begin(),
                 sample.binary.words().end());
  norm_.push_back(sample.real_norm);
  norm2_.push_back(sample.real_norm2);
  targets_.push_back(target);
}

}  // namespace reghd::core
