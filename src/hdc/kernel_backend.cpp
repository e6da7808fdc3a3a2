#include "hdc/kernel_backend.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#endif

#include "hdc/rff_remat.hpp"
#include "util/fast_trig.hpp"

namespace reghd::hdc {

namespace {

// ---------------------------------------------------------------------------
// Portable scalar kernels.
//
// Sign application is branchless: for b ∈ {0,1}, (b ? +v : −v) equals
// v with its IEEE-754 sign bit XOR-flipped when b = 0. This adds exactly the
// same values in exactly the same order as a compare-per-component loop, so
// the scalar backend is bit-identical to the seed reference implementations
// — minus the per-bit branch mispredictions that dominated them.
// ---------------------------------------------------------------------------

/// +v when the low bit of `keep` is 1, −v when it is 0.
inline double apply_sign(double v, std::uint64_t keep) {
  const std::uint64_t flip = (~keep & 1ULL) << 63;
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^ flip);
}

double scalar_dot_real_real(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

double scalar_dot_real_binary(const double* a, const std::uint64_t* bits, std::size_t n) {
  double acc = 0.0;
  std::size_t i = 0;
  for (std::size_t w = 0; i + 64 <= n; ++w, i += 64) {
    const std::uint64_t word = bits[w];
    for (std::size_t j = 0; j < 64; ++j) {
      acc += apply_sign(a[i + j], word >> j);
    }
  }
  if (i < n) {
    const std::uint64_t word = bits[i >> 6];
    for (std::size_t j = 0; i + j < n; ++j) {
      acc += apply_sign(a[i + j], word >> j);
    }
  }
  return acc;
}

double scalar_masked_dot(const double* a, const std::uint64_t* signs,
                         const std::uint64_t* mask, std::size_t n) {
  // Iterate set mask bits only — ternary masks are often sparse, and this
  // preserves the exact accumulation order of the reference loop.
  double acc = 0.0;
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t active = mask[w];
    const std::uint64_t sign_bits = signs[w];
    const std::size_t base = w << 6;
    while (active != 0) {
      const auto j = static_cast<std::size_t>(std::countr_zero(active));
      active &= active - 1;  // clear lowest set bit
      acc += apply_sign(a[base + j], sign_bits >> j);
    }
  }
  return acc;
}

std::int64_t scalar_hamming(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t words) {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < words; ++i) {
    total += std::popcount(a[i] ^ b[i]);
  }
  return total;
}

std::int64_t scalar_masked_xnor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                         const std::uint64_t* mask, std::size_t words) {
  std::int64_t agree = 0;
  std::int64_t active = 0;
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t m = mask[i];
    agree += std::popcount(~(a[i] ^ b[i]) & m);
    active += std::popcount(m);
  }
  return 2 * agree - active;
}

void scalar_add_scaled_real(double* a, const double* b, double c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    a[i] += c * b[i];
  }
}

void scalar_add_scaled_binary(double* a, const std::uint64_t* bits, double c,
                              std::size_t n) {
  const std::uint64_t c_bits = std::bit_cast<std::uint64_t>(c);
  std::size_t i = 0;
  for (std::size_t w = 0; i + 64 <= n; ++w, i += 64) {
    const std::uint64_t word = bits[w];
    for (std::size_t j = 0; j < 64; ++j) {
      const std::uint64_t flip = (~(word >> j) & 1ULL) << 63;
      a[i + j] += std::bit_cast<double>(c_bits ^ flip);
    }
  }
  if (i < n) {
    const std::uint64_t word = bits[i >> 6];
    for (std::size_t j = 0; i + j < n; ++j) {
      const std::uint64_t flip = (~(word >> j) & 1ULL) << 63;
      a[i + j] += std::bit_cast<double>(c_bits ^ flip);
    }
  }
}

void scalar_merge_accumulate(double* acc, const double* rep, const double* base,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] += rep[i] - base[i];
  }
}

void scalar_scale_real(double* a, double c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    a[i] *= c;
  }
}

void scalar_rff_trig_map(double* z, const double* phase, const double* sin_phase,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    z[i] = 0.5 * (util::fast_sin(2.0 * z[i] + phase[i]) - sin_phase[i]);
  }
}

void scalar_rff_rematerialize(std::uint64_t seed, double stddev, std::size_t row0,
                              std::size_t rows, std::size_t n_features, double* out,
                              std::size_t ld) {
  // The reference operation sequence of the rematerialization contract lives
  // in rff_remat.hpp (shared with the AVX2 TU, which replays it four rows
  // per lane group and reuses it verbatim for row tails).
  detail::rff_rematerialize_rows(seed, stddev, row0, rows, n_features, out, ld);
}

void scalar_rff_remat_dot(std::uint64_t seed, double stddev, std::size_t row0,
                          std::size_t rows, const double* x, std::size_t n_features,
                          double* out) {
  detail::rff_remat_dot_rows(seed, stddev, row0, rows, x, n_features, out);
}

// Column tile of the blocked GEMM: 512 doubles (4 KB) per B-panel row keeps a
// typical feature-count panel resident in L1 while a block of output rows
// streams over it. Every table's rff_project_map uses the same tile, so the
// traversal (not the arithmetic order, which is fixed per element) is the
// only tunable.
constexpr std::size_t kGemmColTile = 512;

/// rff_project_map's accumulate step: c[r·ldc + j] += Σ_k a[r·lda + k] ·
/// b[k·ldb + j], k ascending, each term a separate multiply then add — the
/// add_scaled_real chain, blocked.
void scalar_gemm(const double* a, std::size_t lda, const double* b,
                            std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
                            std::size_t k, std::size_t n) {
  for (std::size_t j0 = 0; j0 < n; j0 += kGemmColTile) {
    const std::size_t jn = std::min(n, j0 + kGemmColTile);
    for (std::size_t r = 0; r < m; ++r) {
      const double* arow = a + r * lda;
      double* crow = c + r * ldc;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double aik = arow[kk];
        const double* brow = b + kk * ldb;
        for (std::size_t j = j0; j < jn; ++j) {
          crow[j] += aik * brow[j];
        }
      }
    }
  }
}

void scalar_dot_rows_block(const double* q, const double* const* rows,
                           std::size_t num_rows, std::size_t len, bool last,
                           double* state, double* out) {
  // The scalar reduction is one running sum, so the carried state per row is
  // just that sum in slot 0 of its kDotRowsBlockState stride. Accumulating
  // block by block adds the same values in the same order as
  // scalar_dot_real_real over the concatenated query — bit-identical.
  for (std::size_t r = 0; r < num_rows; ++r) {
    double acc = state[r * kDotRowsBlockState];
    const double* a = rows[r];
    for (std::size_t i = 0; i < len; ++i) {
      acc += a[i] * q[i];
    }
    if (last) {
      out[r] = acc;
    } else {
      state[r * kDotRowsBlockState] = acc;
    }
  }
}

void scalar_dot_rows_ternary(const std::uint64_t* q, const std::uint64_t* signs,
                             const std::uint64_t* masks, std::size_t ld,
                             std::size_t num_rows, std::size_t n, std::int64_t* out) {
  // Per row exactly scalar_masked_xnor_popcount: the bank kernel only changes
  // the traversal, mirroring the AVX2 side's masked_xnor_popcount.
  const std::size_t words = (n + 63) / 64;
  for (std::size_t r = 0; r < num_rows; ++r) {
    out[r] = scalar_masked_xnor_popcount(signs + r * ld, q, masks + r * ld, words);
  }
}

void scalar_sign_pack(const double* v, std::uint64_t* bits, std::size_t n) {
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t base = w << 6;
    const std::size_t limit = std::min<std::size_t>(64, n - base);
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < limit; ++j) {
      word |= static_cast<std::uint64_t>(!(v[base + j] < 0.0)) << j;
    }
    bits[w] = word;
  }
}

constexpr KernelBackend kScalarBackend{
    "scalar",
    1,
    scalar_dot_real_real,
    scalar_dot_real_binary,
    scalar_masked_dot,
    scalar_hamming,
    scalar_add_scaled_real,
    scalar_add_scaled_binary,
    scalar_merge_accumulate,
    scalar_scale_real,
    scalar_rff_trig_map,
    scalar_rff_rematerialize,
    scalar_rff_remat_dot,
    detail::rff_project_map_composed<scalar_gemm, scalar_rff_trig_map>,
    detail::dot_rows_multi_composed<scalar_dot_real_real>,
    detail::update_dot_rows_composed<scalar_add_scaled_real,
                                     detail::dot_rows_multi_composed<scalar_dot_real_real>>,
    scalar_dot_rows_block,
    scalar_dot_rows_ternary,
    scalar_sign_pack,
};

}  // namespace

const KernelBackend& scalar_backend() noexcept { return kScalarBackend; }

bool cpu_supports_avx2() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define REGHD_X86_CPUID 1
#endif

namespace {

#ifdef REGHD_X86_CPUID
/// Leaf-7 subleaf-0 feature words, or all-zero when the leaf (or the OS
/// XSAVE state AVX-512 needs) is unsupported. AVX-512 requires both the CPU
/// feature bits and the OS to have enabled the ZMM/opmask register state:
/// CPUID alone lies on kernels that mask XCR0, so xgetbv is checked first.
struct Leaf7 {
  unsigned ebx = 0;
  unsigned ecx = 0;
};

Leaf7 avx512_leaf7() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    return {};
  }
  if ((ecx & (1U << 27)) == 0) {  // OSXSAVE: xgetbv is executable
    return {};
  }
  std::uint32_t xcr0_lo = 0, xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  // XMM (bit 1), YMM (bit 2), opmask/ZMM_hi256/hi16_ZMM (bits 5–7).
  constexpr std::uint32_t kAvx512State = 0xE6;
  if ((xcr0_lo & kAvx512State) != kAvx512State) {
    return {};
  }
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    return {};
  }
  return {ebx, ecx};
}
#endif  // REGHD_X86_CPUID

}  // namespace

bool cpu_supports_avx512() noexcept {
#ifdef REGHD_X86_CPUID
  const Leaf7 leaf = avx512_leaf7();
  // AVX512F (EBX bit 16) + AVX512BW (EBX bit 30) — the table's baseline ISA.
  return (leaf.ebx & (1U << 16)) != 0 && (leaf.ebx & (1U << 30)) != 0;
#else
  return false;
#endif
}

bool cpu_supports_avx512_vpopcntdq() noexcept {
#ifdef REGHD_X86_CPUID
  // VPOPCNTDQ is ECX bit 14 of leaf 7.0.
  return cpu_supports_avx512() && (avx512_leaf7().ecx & (1U << 14)) != 0;
#else
  return false;
#endif
}

#ifdef REGHD_HAVE_AVX2
// Defined in kernel_backend_avx2.cpp (compiled with -mavx2 -mfma).
const KernelBackend* avx2_backend_table() noexcept;
#endif
#ifdef REGHD_HAVE_AVX512
// Defined in kernel_backend_avx512.cpp (compiled with -mavx512f -mavx512bw).
const KernelBackend* avx512_backend_table(bool vpopcntdq) noexcept;
#endif
#ifdef REGHD_HAVE_NEON
// Defined in kernel_backend_neon.cpp (aarch64 only).
const KernelBackend* neon_backend_table() noexcept;
#endif

const KernelBackend* avx2_backend() noexcept {
#ifdef REGHD_HAVE_AVX2
  if (cpu_supports_avx2()) {
    return avx2_backend_table();
  }
#endif
  return nullptr;
}

const KernelBackend* avx512_backend() noexcept {
#ifdef REGHD_HAVE_AVX512
  if (cpu_supports_avx512()) {
    return avx512_backend_table(cpu_supports_avx512_vpopcntdq());
  }
#endif
  return nullptr;
}

const KernelBackend* neon_backend() noexcept {
#ifdef REGHD_HAVE_NEON
  return neon_backend_table();
#else
  return nullptr;
#endif
}

const KernelBackend* backend_by_name(const char* name) noexcept {
  if (name == nullptr) {
    return nullptr;
  }
  if (std::strcmp(name, "scalar") == 0) {
    return &kScalarBackend;
  }
  if (std::strcmp(name, "avx2") == 0) {
    return avx2_backend();
  }
  if (std::strcmp(name, "avx512") == 0) {
    return avx512_backend();
  }
  if (std::strcmp(name, "neon") == 0) {
    return neon_backend();
  }
  return nullptr;
}

BackendList available_backends() noexcept {
  BackendList list;
  list.tables[list.count++] = &kScalarBackend;
  if (const KernelBackend* avx2 = avx2_backend()) {
    list.tables[list.count++] = avx2;
  }
  if (const KernelBackend* avx512 = avx512_backend()) {
    list.tables[list.count++] = avx512;
  }
  if (const KernelBackend* neon = neon_backend()) {
    list.tables[list.count++] = neon;
  }
  return list;
}

const KernelBackend* resolve_backend_request(const char* request,
                                             std::string* message) {
  if (const KernelBackend* chosen = backend_by_name(request)) {
    return chosen;
  }
  if (message != nullptr) {
    std::string names;
    const BackendList list = available_backends();
    for (std::size_t i = 0; i < list.count; ++i) {
      if (i != 0) {
        names += ", ";
      }
      names += list.tables[i]->name;
    }
    *message = "reghd: REGHD_KERNEL=";
    *message += request != nullptr ? request : "";
    *message += " is unknown or unavailable on this host (available: ";
    *message += names;
    *message += "); falling back to the scalar backend";
  }
  return nullptr;
}

namespace {

const KernelBackend& resolve_active_backend() noexcept {
  if (const char* request = std::getenv("REGHD_KERNEL")) {
    std::string message;
    if (const KernelBackend* chosen = resolve_backend_request(request, &message)) {
      return *chosen;
    }
    std::fprintf(stderr, "%s\n", message.c_str());
    return kScalarBackend;
  }
  if (const KernelBackend* avx512 = avx512_backend()) {
    return *avx512;
  }
  if (const KernelBackend* avx2 = avx2_backend()) {
    return *avx2;
  }
  if (const KernelBackend* neon = neon_backend()) {
    return *neon;
  }
  return kScalarBackend;
}

}  // namespace

const KernelBackend& active_backend() noexcept {
  static const KernelBackend& backend = resolve_active_backend();
  return backend;
}

}  // namespace reghd::hdc
