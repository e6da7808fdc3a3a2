// Hypervector value types.
//
// RegHD manipulates three representations of a D-dimensional hypervector:
//
//  * RealHV    — dense double components. Used for the pre-binarization
//                encoder output, the integer/accumulator models M, and the
//                integer cluster centers C (the paper's "integer" vectors —
//                high-precision accumulators as opposed to binary ones).
//  * BipolarHV — dense ±1 components (int8): the random base hypervectors
//                B_k of Eq. 1 and the unpacked form of a BinaryHV.
//  * BinaryHV  — bit-packed {0,1}^D (64 dims per machine word, bit 1 ⇔ +1).
//                The encoded sample's sign S ∈ {−1,+1}^D and the quantized
//                form of §3: Hamming-distance similarity, multiply-free dot
//                products via XOR + popcount, and sign-masked updates
//                M += c·S.
//
// Conversions preserve the bipolar interpretation: bit b encodes component
// 2b − 1, so Hamming distance h between two BinaryHVs and the bipolar dot
// product d of the corresponding BipolarHVs obey d = D − 2h exactly. The
// test suite pins this identity.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace reghd::hdc {

class BipolarHV;
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

  /// Component-wise sign binarization to ±1: −1 where the component is
  /// < 0, else +1 (so ±0 and NaN map to +1 and the result is always a valid
  /// bipolar vector).
  [[nodiscard]] BipolarHV sign() const;

  /// Sign binarization straight to the packed form, by the same rule.
  [[nodiscard]] BinaryHV sign_packed() const;

  bool operator==(const RealHV&) const = default;

 private:
  std::vector<double> data_;
};

/// Dense ±1 hypervector stored as int8 components.
class BipolarHV {
 public:
  BipolarHV() = default;

  /// All-(+1) hypervector of the given dimensionality.
  explicit BipolarHV(std::size_t dim) : data_(dim, +1) {}

  /// Adopts component values; every element must be +1 or −1.
  explicit BipolarHV(std::vector<std::int8_t> values);

  [[nodiscard]] std::size_t dim() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] std::int8_t operator[](std::size_t i) const noexcept { return data_[i]; }

  /// Sets component i to +1 or −1.
  void set(std::size_t i, std::int8_t value) {
    REGHD_CHECK(value == 1 || value == -1, "bipolar component must be ±1, got "
                                               << static_cast<int>(value));
    data_[i] = value;
  }

  [[nodiscard]] std::span<const std::int8_t> values() const noexcept { return data_; }

  /// Packs into the bit representation (bit 1 ⇔ +1).
  [[nodiscard]] BinaryHV pack() const;

  /// Widens to a real hypervector.
  [[nodiscard]] RealHV to_real() const;

  bool operator==(const BipolarHV&) const = default;

 private:
  friend class RealHV;  // sign() writes ±1 directly, skipping re-validation.
  std::vector<std::int8_t> data_;
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

  /// Unpacks to the dense ±1 representation.
  [[nodiscard]] BipolarHV unpack() const;

  /// Widens to a real ±1 hypervector.
  [[nodiscard]] RealHV to_real() const;

  bool operator==(const BinaryHV&) const = default;

 private:
  friend class RealHVView;  // sign_packed() sets bits word-directly.
  friend class BipolarHV;

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
// still accepts a RealHV / BipolarHV / BinaryHV at the call site.
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

  /// Sign binarization straight to the packed form: a bit is set unless the
  /// component is < 0, so ±0 and NaN set theirs — RealHV::sign()'s rule,
  /// through KernelBackend::sign_pack.
  [[nodiscard]] BinaryHV sign_packed() const;

  friend bool operator==(const RealHVView& a, const RealHVView& b) noexcept {
    return a.data_.size() == b.data_.size() &&
           std::equal(a.data_.begin(), a.data_.end(), b.data_.begin());
  }

 private:
  std::span<const double> data_;
};

/// Read-only view of a dense ±1 hypervector.
class BipolarHVView {
 public:
  BipolarHVView() = default;
  explicit BipolarHVView(std::span<const std::int8_t> values) : data_(values) {}
  BipolarHVView(const BipolarHV& hv) : data_(hv.values()) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::size_t dim() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] std::int8_t operator[](std::size_t i) const noexcept { return data_[i]; }
  [[nodiscard]] std::span<const std::int8_t> values() const noexcept { return data_; }

  /// Widens to an owning real hypervector.
  [[nodiscard]] RealHV to_real() const;

  /// Copies the viewed components into an owning hypervector.
  [[nodiscard]] BipolarHV to_owning() const {
    return BipolarHV(std::vector<std::int8_t>{data_.begin(), data_.end()});
  }

  friend bool operator==(const BipolarHVView& a, const BipolarHVView& b) noexcept {
    return a.data_.size() == b.data_.size() &&
           std::equal(a.data_.begin(), a.data_.end(), b.data_.begin());
  }

 private:
  std::span<const std::int8_t> data_;
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
