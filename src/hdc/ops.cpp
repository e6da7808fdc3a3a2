#include "hdc/ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "hdc/kernel_backend.hpp"

namespace reghd::hdc {

namespace {

void check_dims(std::size_t a, std::size_t b, const char* op) {
  REGHD_CHECK(a == b, op << ": dimension mismatch " << a << " vs " << b);
}

/// 64 consecutive bits of the circular d-bit vector `w` starting at bit q
/// (q < d). Reads never cross the d boundary in one chunk, so the padding
/// bits of the final word are never picked up.
std::uint64_t circular_read64(std::span<const std::uint64_t> w, std::size_t d,
                              std::size_t q) {
  std::uint64_t out = 0;
  std::size_t got = 0;
  while (got < 64) {
    std::size_t pos = q + got;
    if (pos >= d) {
      pos %= d;
    }
    const std::size_t word = pos >> 6;
    const std::size_t off = pos & 63;
    const std::size_t avail = std::min<std::size_t>(64 - off, d - pos);
    const std::size_t take = std::min<std::size_t>(64 - got, avail);
    const std::uint64_t chunk =
        (w[word] >> off) & (take == 64 ? ~0ULL : ((1ULL << take) - 1));
    out |= chunk << got;
    got += take;
  }
  return out;
}

}  // namespace

double dot(RealHVView a, RealHVView b) {
  check_dims(a.dim(), b.dim(), "dot(real,real)");
  return active_backend().dot_real_real(a.values().data(), b.values().data(), a.dim());
}

double dot(RealHVView a, BinaryHVView b) {
  check_dims(a.dim(), b.dim(), "dot(real,binary)");
  return active_backend().dot_real_binary(a.values().data(), b.words().data(), a.dim());
}

std::int64_t bipolar_dot(BinaryHVView a, BinaryHVView b) {
  check_dims(a.dim(), b.dim(), "bipolar_dot(binary,binary)");
  const std::int64_t h = static_cast<std::int64_t>(hamming_distance(a, b));
  return static_cast<std::int64_t>(a.dim()) - 2 * h;
}

double masked_dot(RealHVView a, BinaryHVView signs, BinaryHVView mask) {
  check_dims(a.dim(), signs.dim(), "masked_dot");
  check_dims(a.dim(), mask.dim(), "masked_dot(mask)");
  return active_backend().masked_dot(a.values().data(), signs.words().data(),
                                     mask.words().data(), a.dim());
}

std::size_t hamming_distance(BinaryHVView a, BinaryHVView b) {
  check_dims(a.dim(), b.dim(), "hamming_distance");
  return static_cast<std::size_t>(
      active_backend().hamming(a.words().data(), b.words().data(), a.word_count()));
}

double hamming_similarity(BinaryHVView a, BinaryHVView b) {
  REGHD_CHECK(a.dim() > 0, "hamming_similarity of empty vectors");
  const auto h = static_cast<double>(hamming_distance(a, b));
  return 1.0 - 2.0 * h / static_cast<double>(a.dim());
}

double norm(RealHVView a) { return std::sqrt(dot(a, a)); }

double cosine(RealHVView a, RealHVView b) {
  check_dims(a.dim(), b.dim(), "cosine(real,real)");
  const double na = norm(a);
  const double nb = norm(b);
  if (na == 0.0 || nb == 0.0) {
    return 0.0;
  }
  return dot(a, b) / (na * nb);
}

double cosine(RealHVView a, BinaryHVView b) {
  check_dims(a.dim(), b.dim(), "cosine(real,binary)");
  const double na = norm(a);
  if (na == 0.0 || a.dim() == 0) {
    return 0.0;
  }
  return dot(a, b) / (na * std::sqrt(static_cast<double>(a.dim())));
}

void add_scaled(std::span<double> a, RealHVView b, double c) {
  check_dims(a.size(), b.dim(), "add_scaled(real,real)");
  active_backend().add_scaled_real(a.data(), b.values().data(), c, a.size());
}

void add_scaled(std::span<double> a, BinaryHVView b, double c) {
  check_dims(a.size(), b.dim(), "add_scaled(real,binary)");
  active_backend().add_scaled_binary(a.data(), b.words().data(), c, a.size());
}

void scale(std::span<double> a, double c) {
  active_backend().scale_real(a.data(), c, a.size());
}

BinaryHV xor_bind(const BinaryHV& a, const BinaryHV& b) {
  BinaryHV out(a.dim());
  xor_bind_into(out, a, b);
  return out;
}

void xor_bind_into(BinaryHV& out, const BinaryHV& a, const BinaryHV& b) {
  check_dims(a.dim(), b.dim(), "xor_bind");
  check_dims(out.dim(), a.dim(), "xor_bind(out)");
  // In the bipolar view, component-wise multiplication corresponds to XNOR
  // of the bits: (+1)(+1)=+1 ↔ 1 xnor 1 = 1. Whole-word XNOR, with the
  // trailing padding bits of the final word re-zeroed.
  const auto wa = a.words();
  const auto wb = b.words();
  const auto wo = out.words();
  for (std::size_t i = 0; i < wa.size(); ++i) {
    wo[i] = ~(wa[i] ^ wb[i]);
  }
  const std::size_t tail = a.dim() & 63;
  if (tail != 0 && !wo.empty()) {
    wo.back() &= (1ULL << tail) - 1;
  }
}

BinaryHV permute(const BinaryHV& a, std::size_t shift) {
  const std::size_t d = a.dim();
  REGHD_CHECK(d > 0, "permute of empty vector");
  BinaryHV out(d);
  permute_into(out, a, shift);
  return out;
}

void permute_into(BinaryHV& out, const BinaryHV& a, std::size_t shift) {
  const std::size_t d = a.dim();
  REGHD_CHECK(d > 0, "permute of empty vector");
  check_dims(out.dim(), d, "permute(out)");
  const std::size_t s = shift % d;
  // out bit p = a bit ((p − s) mod d): each output word is 64 consecutive
  // circular bits of a, assembled word-at-a-time instead of bit-by-bit.
  const auto wa = a.words();
  const auto wo = out.words();
  std::size_t q = (d - s) % d;  // source bit index for output bit 0
  for (std::size_t w = 0; w < wo.size(); ++w) {
    wo[w] = circular_read64(wa, d, q);
    q = (q + 64) % d;
  }
  const std::size_t tail = d & 63;
  if (tail != 0) {
    wo.back() &= (1ULL << tail) - 1;
  }
}

BinaryHV majority(const std::vector<BinaryHV>& vectors) {
  REGHD_CHECK(!vectors.empty(), "majority of no vectors");
  const std::size_t d = vectors.front().dim();
  std::vector<std::int64_t> counts(d, 0);
  for (const auto& v : vectors) {
    check_dims(v.dim(), d, "majority");
    const auto words = v.words();
    for (std::size_t i = 0; i < d; ++i) {
      // Branchless ±1 from the packed bit.
      counts[i] += 2 * static_cast<std::int64_t>((words[i >> 6] >> (i & 63)) & 1ULL) - 1;
    }
  }
  BinaryHV out(d);
  for (std::size_t i = 0; i < d; ++i) {
    out.set_bit(i, counts[i] >= 0);
  }
  return out;
}

}  // namespace reghd::hdc
