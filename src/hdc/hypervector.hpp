// Hypervector value types.
//
// RegHD manipulates two representations of a D-dimensional hypervector:
//
//  * RealHV   — dense double components. Used for the pre-binarization
//               encoder output, the integer/accumulator models M, and the
//               integer cluster centers C (the paper's "integer" vectors —
//               high-precision accumulators as opposed to binary ones).
//  * BinaryHV — bit-packed {0,1}^D (64 dims per machine word, bit 1 ⇔ +1),
//               the only ±1 type. The encoded sample's sign S ∈ {−1,+1}^D,
//               the random base hypervectors B_k of Eq. 1, the random
//               cluster init and the quantized form of §3: Hamming-distance
//               similarity, multiply-free dot products via XOR + popcount,
//               and sign-flipped updates M += c·S, each exact.
//
// Bit b encodes the bipolar component 2b − 1 (BinaryHV::bipolar, to_real),
// so the Hamming distance h between two BinaryHVs and the dot product d of
// their bipolar vectors obey d = D − 2h exactly. The test suite pins this
// identity.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace reghd::hdc {

class BinaryHV;

/// Dense real-valued hypervector.
class RealHV {
 public:
  RealHV() = default;

  /// Zero-initialized hypervector of the given dimensionality.
  explicit RealHV(std::size_t dim) : data_(dim, 0.0) {}

  /// Adopts existing component values.
  explicit RealHV(std::vector<double> values) : data_(std::move(values)) {}

  [[nodiscard]] std::size_t dim() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double operator[](std::size_t i) const noexcept { return data_[i]; }
  [[nodiscard]] double& operator[](std::size_t i) noexcept { return data_[i]; }

  [[nodiscard]] std::span<const double> values() const noexcept { return data_; }
  [[nodiscard]] std::span<double> values() noexcept { return data_; }

  /// Resets every component to zero without changing the dimensionality.
  void clear() noexcept { std::fill(data_.begin(), data_.end(), 0.0); }

  /// Component-wise sign binarization to the packed form: bit 0 (−1) where
  /// the component is < 0, else bit 1 (+1) — so ±0 and NaN map to +1.
  [[nodiscard]] BinaryHV sign_packed() const;

  bool operator==(const RealHV&) const = default;

 private:
  std::vector<double> data_;
};

/// Bit-packed binary hypervector; bit 1 encodes bipolar +1, bit 0 encodes −1.
/// Unused bits in the final word are kept at zero so whole-word popcount
/// operations need no masking.
class BinaryHV {
 public:
  BinaryHV() = default;

  /// All-zero-bit (all −1 bipolar) hypervector of the given dimensionality.
  explicit BinaryHV(std::size_t dim);

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] bool empty() const noexcept { return dim_ == 0; }

  /// Number of 64-bit storage words.
  [[nodiscard]] std::size_t word_count() const noexcept { return words_.size(); }

  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

  /// Mutable word storage for word-at-a-time kernels (ops.cpp). Callers must
  /// keep the padding bits of the final word zero — whole-word popcount
  /// kernels rely on it.
  [[nodiscard]] std::span<std::uint64_t> words() noexcept { return words_; }

  [[nodiscard]] bool bit(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void set_bit(std::size_t i, bool value) noexcept {
    const std::uint64_t mask = 1ULL << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  /// Bipolar value of component i: +1 for a set bit, −1 otherwise.
  [[nodiscard]] int bipolar(std::size_t i) const noexcept { return bit(i) ? +1 : -1; }

  /// Number of set bits.
  [[nodiscard]] std::size_t popcount() const noexcept;

  /// Widens to a real ±1 hypervector.
  [[nodiscard]] RealHV to_real() const;

  bool operator==(const BinaryHV&) const = default;

 private:
  friend class RealHVView;  // sign_packed() sets bits word-directly.

  std::size_t dim_ = 0;
  std::vector<std::uint64_t> words_;
};

// ---------------------------------------------------------------------------
// Non-owning views.
//
// The SoA encoded arena (core/encoded) stores hypervector components in flat
// contiguous planes instead of per-sample vectors; these views give that
// storage the same read interface as the owning types. Owning hypervectors
// convert implicitly, so every read-only kernel signature that takes a view
// still accepts a RealHV / BinaryHV at the call site.
// ---------------------------------------------------------------------------

/// Read-only view of a dense real hypervector.
class RealHVView {
 public:
  RealHVView() = default;
  explicit RealHVView(std::span<const double> values) : data_(values) {}
  RealHVView(const RealHV& hv) : data_(hv.values()) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::size_t dim() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] double operator[](std::size_t i) const noexcept { return data_[i]; }
  [[nodiscard]] std::span<const double> values() const noexcept { return data_; }

  /// Copies the viewed components into an owning hypervector.
  [[nodiscard]] RealHV to_owning() const { return RealHV({data_.begin(), data_.end()}); }

  /// RealHV::sign_packed() on the viewed components, through
  /// KernelBackend::sign_pack.
  [[nodiscard]] BinaryHV sign_packed() const;

  friend bool operator==(const RealHVView& a, const RealHVView& b) noexcept {
    return a.data_.size() == b.data_.size() &&
           std::equal(a.data_.begin(), a.data_.end(), b.data_.begin());
  }

 private:
  std::span<const double> data_;
};

/// Read-only view of a bit-packed binary hypervector. The viewed words obey
/// the same invariant as BinaryHV: padding bits of the final word are zero.
class BinaryHVView {
 public:
  BinaryHVView() = default;
  BinaryHVView(std::size_t dim, std::span<const std::uint64_t> words)
      : dim_(dim), words_(words) {}
  BinaryHVView(const BinaryHV& hv)  // NOLINT(google-explicit-constructor)
      : dim_(hv.dim()), words_(hv.words()) {}

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] bool empty() const noexcept { return dim_ == 0; }
  [[nodiscard]] std::size_t word_count() const noexcept { return words_.size(); }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

  [[nodiscard]] bool bit(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  /// Bipolar value of component i: +1 for a set bit, −1 otherwise.
  [[nodiscard]] int bipolar(std::size_t i) const noexcept { return bit(i) ? +1 : -1; }

  /// Copies the viewed words into an owning hypervector.
  [[nodiscard]] BinaryHV to_owning() const;

  friend bool operator==(const BinaryHVView& a, const BinaryHVView& b) noexcept {
    return a.dim_ == b.dim_ &&
           std::equal(a.words_.begin(), a.words_.end(), b.words_.begin());
  }

 private:
  std::size_t dim_ = 0;
  std::span<const std::uint64_t> words_;
};

}  // namespace reghd::hdc
