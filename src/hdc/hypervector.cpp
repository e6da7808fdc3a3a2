#include "hdc/hypervector.hpp"

#include <algorithm>
#include <bit>

#include "hdc/kernel_backend.hpp"

namespace reghd::hdc {

BinaryHV RealHV::sign_packed() const { return RealHVView(*this).sign_packed(); }

BinaryHV RealHVView::sign_packed() const {
  BinaryHV out(data_.size());
  active_backend().sign_pack(data_.data(), out.words_.data(), data_.size());
  return out;
}

BinaryHV::BinaryHV(std::size_t dim) : dim_(dim), words_((dim + 63) / 64, 0ULL) {}

std::size_t BinaryHV::popcount() const noexcept {
  std::size_t total = 0;
  for (const std::uint64_t w : words_) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
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
