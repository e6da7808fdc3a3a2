#include "hdc/hypervector.hpp"

#include <algorithm>
#include <bit>

#include "hdc/kernel_backend.hpp"

namespace reghd::hdc {

BipolarHV RealHV::sign() const {
  BipolarHV out;
  out.data_.resize(data_.size());
  // Branchless select vectorizes; the by-construction ±1 invariant makes the
  // validating BipolarHV(vector) constructor pass (and its cost) unnecessary.
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = static_cast<std::int8_t>(1 - 2 * static_cast<int>(data_[i] < 0.0));
  }
  return out;
}

BinaryHV RealHV::sign_packed() const { return RealHVView(*this).sign_packed(); }

BinaryHV RealHVView::sign_packed() const {
  BinaryHV out(data_.size());
  active_backend().sign_pack(data_.data(), out.words_.data(), data_.size());
  return out;
}

BipolarHV::BipolarHV(std::vector<std::int8_t> values) : data_(std::move(values)) {
  for (const std::int8_t v : data_) {
    REGHD_CHECK(v == 1 || v == -1,
                "bipolar component must be ±1, got " << static_cast<int>(v));
  }
}

BinaryHV BipolarHV::pack() const {
  BinaryHV out(data_.size());
  // Word-at-a-time: accumulate 64 sign bits in a register before one store,
  // rather than a read-modify-write of the output word per component.
  const std::size_t full_words = data_.size() / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < 64; ++b) {
      bits |= static_cast<std::uint64_t>(data_[w * 64 + b] > 0) << b;
    }
    out.words_[w] = bits;
  }
  for (std::size_t i = full_words * 64; i < data_.size(); ++i) {
    if (data_[i] > 0) {
      out.words_[i >> 6] |= 1ULL << (i & 63);
    }
  }
  return out;
}

RealHV BipolarHV::to_real() const {
  std::vector<double> out(data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out[i] = static_cast<double>(data_[i]);
  }
  return RealHV(std::move(out));
}

RealHV BipolarHVView::to_real() const {
  std::vector<double> out(data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out[i] = static_cast<double>(data_[i]);
  }
  return RealHV(std::move(out));
}

BinaryHV::BinaryHV(std::size_t dim) : dim_(dim), words_((dim + 63) / 64, 0ULL) {}

std::size_t BinaryHV::popcount() const noexcept {
  std::size_t total = 0;
  for (const std::uint64_t w : words_) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

BipolarHV BinaryHV::unpack() const {
  std::vector<std::int8_t> out(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    out[i] = bit(i) ? std::int8_t{1} : std::int8_t{-1};
  }
  return BipolarHV(std::move(out));
}

RealHV BinaryHV::to_real() const {
  std::vector<double> out(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    out[i] = bit(i) ? 1.0 : -1.0;
  }
  return RealHV(std::move(out));
}

BinaryHV BinaryHVView::to_owning() const {
  BinaryHV out(dim_);
  std::copy(words_.begin(), words_.end(), out.words().begin());
  return out;
}

}  // namespace reghd::hdc
