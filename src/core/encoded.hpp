// Pre-encoded dataset: the in-memory form the core learners train on.
//
// Encoding is deterministic and independent of the model state, so every
// sample is mapped into hyperspace exactly once and reused across training
// epochs — the same structure a hardware implementation uses (the encoder
// block streams each input once per pass; iterative epochs replay the
// encoded buffer).
//
// Storage is SoA: one contiguous cache-line-aligned row-major B×D real
// matrix, one packed B×⌈D/64⌉ sign bit-plane, and flat norm/norm²/target
// arrays. sample(i) hands out an EncodedSampleView over row i, so the
// per-sample training/prediction code is unchanged, while the flat planes
// feed the GEMM batch kernels (encode_batch_into, dot_rows-based bank
// prediction) without any per-sample allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "hdc/encoding.hpp"
#include "util/aligned.hpp"

namespace reghd::core {

/// Packed 2-bit-plane quantization of a model/cluster row bank — the §3.2
/// bank-scan form of MultiModelRegressor's state. Per row: a sign bit-plane,
/// a mask bit-plane (bit set ⇔ the component participates), and one real
/// score scale. A binarized row is its sign snapshot under a full mask with
/// scale γ; a ternary row additionally masks the QuantHD dead zone and
/// scales by γ_ternary; cluster rows carry a full mask and scale 1 (their
/// scores feed the exact Hamming-similarity replay directly). Scored against
/// a packed binary query by KernelBackend::dot_rows_ternary — 2 bits
/// resident per component instead of the 8-byte f64 bank row it replaces
/// (32× per plane pair vs the real bank; ≥4× vs any float storage).
/// Padding bits past `dim` are zero in both planes (the kernel contract).
struct PackedTernaryBank {
  std::size_t rows = 0;
  std::size_t words = 0;  ///< 64-bit words per row in each plane.
  util::AlignedVector<std::uint64_t> signs;  ///< rows × words sign bits.
  util::AlignedVector<std::uint64_t> masks;  ///< rows × words mask bits.
  std::vector<double> scale;                 ///< Per-row score scale.

  /// Resident bytes of the packed planes + scales (the footprint the bank
  /// trades against the f64 rows; reported by the microbench).
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return (signs.size() + masks.size()) * sizeof(std::uint64_t) +
           scale.size() * sizeof(double);
  }
};

class EncodedDataset {
 public:
  EncodedDataset() = default;

  /// Encodes every row of `dataset` with `encoder`, parallelized over rows
  /// with up to `threads` workers (0 = REGHD_THREADS / hardware concurrency;
  /// results are identical for any thread count). Throws if the feature
  /// counts disagree.
  static EncodedDataset from(const hdc::Encoder& encoder, const data::Dataset& dataset,
                             std::size_t threads = 0);

  /// Encodes a flat row-major feature block (num_rows · input_dim doubles)
  /// with all targets zero — the batch prediction path, which has no targets,
  /// reuses the SoA arena through this.
  static EncodedDataset from_rows(const hdc::Encoder& encoder,
                                  std::span<const double> rows_flat,
                                  std::size_t num_rows, std::size_t threads = 0);

  /// Appends one owning sample (copied into the arena planes).
  void add(const hdc::EncodedSample& sample, double target);

  /// Re-encodes a flat row-major feature block (num_rows · input_dim doubles)
  /// into this arena in place, replacing its previous contents. Plane storage
  /// is reused — once capacity covers the largest batch seen, re-encoding
  /// allocates nothing, which is what lets the serving runtime's admission
  /// batcher run one arena per shard on an allocation-free predict path.
  /// Targets are zeroed; geometry follows `encoder`. Contents are identical
  /// to from_rows(encoder, rows_flat, num_rows, threads).
  void assign_rows(const hdc::Encoder& encoder, std::span<const double> rows_flat,
                   std::size_t num_rows, std::size_t threads = 0);

  /// New arena holding the listed rows, in list order (plane rows are copied
  /// verbatim, so subset(i).sample(j) views the exact bytes of sample(rows[j])).
  /// Training never needs the copy — the learners take a row list into one
  /// arena instead (MultiModelRegressor::fit) — but it is the reference the
  /// row-list paths are tested against. Throws if any index is out of range.
  [[nodiscard]] EncodedDataset subset(std::span<const std::size_t> rows) const;

  [[nodiscard]] std::size_t size() const noexcept { return targets_.size(); }
  [[nodiscard]] bool empty() const noexcept { return targets_.empty(); }

  /// Hyperspace dimensionality; 0 when empty.
  [[nodiscard]] std::size_t dim() const noexcept { return empty() ? 0 : dim_; }

  /// View of encoded row i; valid until the dataset is modified or destroyed.
  [[nodiscard]] hdc::EncodedSampleView sample(std::size_t i) const noexcept {
    return {hdc::RealHVView(std::span<const double>(real_.data() + i * dim_, dim_)),
            hdc::BinaryHVView(
                dim_, std::span<const std::uint64_t>(binary_.data() + i * words_, words_)),
            norm_[i], norm2_[i]};
  }

  [[nodiscard]] double target(std::size_t i) const { return targets_[i]; }
  [[nodiscard]] std::span<const double> targets() const noexcept { return targets_; }

  // Flat SoA planes for the GEMM batch kernels. Row r of the real plane is
  // components [r·dim, (r+1)·dim).
  [[nodiscard]] std::size_t words_per_row() const noexcept { return words_; }
  [[nodiscard]] std::span<const double> real_plane() const noexcept {
    return {real_.data(), real_.size()};
  }
  /// Packed sign plane (words_per_row() words per row) for the popcount bank
  /// kernels and the binary-query update slices of the mini-batch trainer;
  /// padding bits of each row's final word are zero.
  [[nodiscard]] std::span<const std::uint64_t> binary_plane() const noexcept {
    return {binary_.data(), binary_.size()};
  }
  [[nodiscard]] std::span<const double> norms() const noexcept { return norm_; }
  [[nodiscard]] std::span<const double> norms2() const noexcept { return norm2_; }

 private:
  static EncodedDataset build(const hdc::Encoder& encoder,
                              std::span<const double> rows_flat, std::size_t num_rows,
                              std::vector<double> targets, std::size_t threads);

  std::size_t dim_ = 0;
  std::size_t words_ = 0;
  util::UninitAlignedVector<double> real_;
  util::UninitAlignedVector<std::uint64_t> binary_;
  std::vector<double> norm_;
  std::vector<double> norm2_;
  std::vector<double> targets_;
};

}  // namespace reghd::core
