// Backend-equivalence properties for the SIMD kernel dispatch layer.
//
// Every kernel in the scalar table is compared against (a) a naive reference
// loop written independently here, and (b) every other table the host can
// run, discovered through available_backends() — scalar, AVX2, AVX-512 and
// NEON all pass through the same assertions, so adding a backend
// automatically enrolls it here. Integer kernels must agree bit-for-bit
// across backends; per-component real kernels must be bit-identical; real
// reductions may differ by summation order only, pinned to a 1e-9 relative
// tolerance. Dimensions cover the packing edge cases: a single component,
// one bit short of a word, exactly one word, one bit past a word, a
// non-multiple of 64, and the default D = 4096.
#include "hdc/kernel_backend.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hdc/hypervector.hpp"
#include "hdc/ops.hpp"
#include "hdc/random_hv.hpp"
#include "util/aligned.hpp"
#include "util/fast_trig.hpp"
#include "util/random.hpp"

namespace reghd::hdc {
namespace {

constexpr std::size_t kDims[] = {1, 63, 64, 65, 1000, 4096};

// |x − y| ≤ tol·max(|x|, |y|, 1): relative for large values, absolute near 0.
void expect_close(double x, double y, double tol = 1e-9) {
  const double scale = std::max({std::abs(x), std::abs(y), 1.0});
  EXPECT_NEAR(x, y, tol * scale);
}

struct TestVectors {
  RealHV ra, rb;
  BinaryHV ba, bb, mask;
};

TestVectors make_vectors(std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  TestVectors v;
  v.ra = random_gaussian(dim, rng);
  v.rb = random_gaussian(dim, rng);
  v.ba = random_binary(dim, rng);
  v.bb = random_binary(dim, rng);
  v.mask = random_binary(dim, rng);
  return v;
}

// Naive references, deliberately written the pedestrian way.
double ref_dot_real_binary(const RealHV& a, const BinaryHV& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.dim(); ++i) {
    acc += b.bit(i) ? a[i] : -a[i];
  }
  return acc;
}

double ref_masked_dot(const RealHV& a, const BinaryHV& signs, const BinaryHV& mask) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.dim(); ++i) {
    if (mask.bit(i)) {
      acc += signs.bit(i) ? a[i] : -a[i];
    }
  }
  return acc;
}

std::int64_t ref_hamming(const BinaryHV& a, const BinaryHV& b) {
  std::int64_t h = 0;
  for (std::size_t i = 0; i < a.dim(); ++i) {
    h += a.bit(i) != b.bit(i) ? 1 : 0;
  }
  return h;
}

std::int64_t ref_masked_bipolar_dot(const BinaryHV& a, const BinaryHV& b,
                                    const BinaryHV& mask) {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < a.dim(); ++i) {
    if (mask.bit(i)) {
      acc += a.bipolar(i) * b.bipolar(i);
    }
  }
  return acc;
}

/// Every table the host can actually run, scalar first. Cross-backend loops
/// below iterate this so a host without SIMD still exercises scalar
/// self-consistency and a host with AVX-512 (or an aarch64 runner with NEON)
/// gets the full matrix without the test naming any backend explicitly.
std::vector<const KernelBackend*> all_available() {
  const BackendList list = available_backends();
  return {list.tables, list.tables + list.count};
}

/// The non-scalar tables, each paired with scalar by the calling test.
std::vector<const KernelBackend*> simd_backends() {
  std::vector<const KernelBackend*> out = all_available();
  std::erase(out, &scalar_backend());
  return out;
}

class KernelBackendTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelBackendTest, ScalarMatchesNaiveReference) {
  const std::size_t dim = GetParam();
  const TestVectors v = make_vectors(dim, 0xBAC0 + dim);
  const KernelBackend& kb = scalar_backend();

  // The scalar backend sums the same values in the same order as the
  // reference loops, so these are exact, not approximate.
  EXPECT_DOUBLE_EQ(kb.dot_real_binary(v.ra.values().data(), v.ba.words().data(), dim),
                   ref_dot_real_binary(v.ra, v.ba));
  EXPECT_DOUBLE_EQ(kb.masked_dot(v.ra.values().data(), v.ba.words().data(),
                                 v.mask.words().data(), dim),
                   ref_masked_dot(v.ra, v.ba, v.mask));
  EXPECT_EQ(kb.hamming(v.ba.words().data(), v.bb.words().data(), v.ba.word_count()),
            ref_hamming(v.ba, v.bb));

  double ref_rr = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    ref_rr += v.ra[i] * v.rb[i];
  }
  EXPECT_DOUBLE_EQ(kb.dot_real_real(v.ra.values().data(), v.rb.values().data(), dim),
                   ref_rr);
}

TEST_P(KernelBackendTest, SimdBackendsMatchScalar) {
  if (simd_backends().empty()) {
    GTEST_SKIP() << "no SIMD backend available on this host/build";
  }
  const std::size_t dim = GetParam();
  const TestVectors v = make_vectors(dim, 0xA0B2 + dim);
  const KernelBackend& sc = scalar_backend();

  for (const KernelBackend* kb : simd_backends()) {
    // Integer kernels: bit-exact across backends.
    EXPECT_EQ(kb->hamming(v.ba.words().data(), v.bb.words().data(), v.ba.word_count()),
              sc.hamming(v.ba.words().data(), v.bb.words().data(), v.ba.word_count()))
        << kb->name;

    // Real kernels: summation order may differ; values must agree to 1e-9
    // relative.
    expect_close(kb->dot_real_real(v.ra.values().data(), v.rb.values().data(), dim),
                 sc.dot_real_real(v.ra.values().data(), v.rb.values().data(), dim));
    expect_close(kb->dot_real_binary(v.ra.values().data(), v.ba.words().data(), dim),
                 sc.dot_real_binary(v.ra.values().data(), v.ba.words().data(), dim));
    expect_close(kb->masked_dot(v.ra.values().data(), v.ba.words().data(),
                                v.mask.words().data(), dim),
                 sc.masked_dot(v.ra.values().data(), v.ba.words().data(),
                               v.mask.words().data(), dim));
  }
}

TEST_P(KernelBackendTest, AccumulationMatchesScalarBitExact) {
  if (simd_backends().empty()) {
    GTEST_SKIP() << "no SIMD backend available on this host/build";
  }
  const std::size_t dim = GetParam();
  const TestVectors v = make_vectors(dim, 0xACC + dim);
  const double c = 0.37;
  const KernelBackend& sc = scalar_backend();

  for (const KernelBackend* kb : simd_backends()) {
    // add_scaled touches each slot independently (no cross-lane
    // accumulation), so every backend must produce bit-identical results.
    // scale_real likewise.
    std::vector<double> sc_buf(v.ra.values().begin(), v.ra.values().end());
    std::vector<double> vx_buf = sc_buf;

    sc.add_scaled_real(sc_buf.data(), v.rb.values().data(), c, dim);
    kb->add_scaled_real(vx_buf.data(), v.rb.values().data(), c, dim);
    EXPECT_EQ(sc_buf, vx_buf) << kb->name;

    sc.add_scaled_binary(sc_buf.data(), v.ba.words().data(), c, dim);
    kb->add_scaled_binary(vx_buf.data(), v.ba.words().data(), c, dim);
    EXPECT_EQ(sc_buf, vx_buf) << kb->name;

    // merge_accumulate (acc += rep − base) is likewise per-component — the
    // shard-merge order-invariance proofs rely on it being bit-identical.
    sc.merge_accumulate(sc_buf.data(), v.rb.values().data(), v.ra.values().data(), dim);
    kb->merge_accumulate(vx_buf.data(), v.rb.values().data(), v.ra.values().data(), dim);
    EXPECT_EQ(sc_buf, vx_buf) << kb->name;

    sc.scale_real(sc_buf.data(), 0.91, dim);
    kb->scale_real(vx_buf.data(), 0.91, dim);
    EXPECT_EQ(sc_buf, vx_buf) << kb->name;
  }
}

/// Bitwise equality of two double arrays — NaN results included, which
/// operator== would report as mismatches even when the bits agree.
::testing::AssertionResult same_bits(const std::vector<double>& got,
                                     const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "sizes " << got.size() << " vs " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) != std::bit_cast<std::uint64_t>(want[i])) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Checks rff_project_map on every table against its contract's
/// definition: zero-fill each output row, add_scaled_real once per k in
/// ascending order (the axpy chain), then the fast_sin trig map. ldb = n; C
/// is m rows of `ldc` and arrives as garbage, and the columns beyond n must
/// stay untouched. With `huge_feature`, one row's first feature is 1e10,
/// which pushes most of its lanes (not all) into the std::sin fallback.
void check_project_map(std::size_t k, std::size_t m, std::size_t n, std::size_t ldc,
                       bool huge_feature, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> a(m * k);
  std::vector<double> b(k * n);
  std::vector<double> phase(n);
  std::vector<double> sin_phase(n);
  for (double& x : a) {
    x = rng.normal(0.0, 1.0);
  }
  for (double& x : b) {
    x = rng.normal(0.0, 0.2);
  }
  for (std::size_t j = 0; j < n; ++j) {
    phase[j] = rng.phase();
    sin_phase[j] = util::fast_sin(phase[j]);
  }
  if (huge_feature) {
    a[(m / 2) * k] = 1.0e10;
  }
  std::vector<double> garbage(m * ldc);
  for (double& x : garbage) {
    x = rng.normal(0.0, 1.0);
  }

  const KernelBackend& sc = scalar_backend();
  std::vector<double> ref = garbage;
  for (std::size_t r = 0; r < m; ++r) {
    double* row = ref.data() + r * ldc;
    std::fill_n(row, n, 0.0);
    for (std::size_t kk = 0; kk < k; ++kk) {
      sc.add_scaled_real(row, b.data() + kk * n, a[r * k + kk], n);
    }
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = 0.5 * (util::fast_sin(2.0 * row[j] + phase[j]) - sin_phase[j]);
    }
  }

  for (const KernelBackend* kb : all_available()) {
    std::vector<double> got = garbage;
    kb->rff_project_map(a.data(), k, b.data(), n, phase.data(), sin_phase.data(),
                        got.data(), ldc, m, k, n);
    ASSERT_TRUE(same_bits(got, ref)) << kb->name << " k " << k << " m " << m << " n " << n
                                     << " ldc " << ldc;
  }
}

TEST(RffProjectMapTest, MatchesZeroFillAxpyChainThenTrigMapBitExact) {
  // Whether a table composes the accumulate and the map or fuses the map
  // into its GEMM's register blocks, every output is the axpy chain then
  // the trig map. Row counts leave every remainder of the 8/4/2/1-row
  // blocks; widths cover the 32-, 16- and 8-column panels, the scalar
  // column tail and a second 512-column tile.
  for (const std::size_t k : {5u, 32u}) {
    for (const std::size_t m : {1u, 3u, 7u, 8u, 9u, 17u, 130u}) {
      for (const std::size_t n : {1u, 7u, 8u, 16u, 24u, 40u, 48u, 100u, 600u}) {
        check_project_map(k, m, n, 700, true, 0x9A0 + 131 * m + n + k);
      }
    }
  }
}

TEST(RffProjectMapTest, RematTileShapesMatchAxpyChainBitExact) {
  // The rematerialized encoder's shape: B rows of F features against a
  // feature-major weight tile a few vectors wide (ldb = n), written into a
  // slice of a wider arena row (ldc = 2048). Widths below and between the
  // SIMD register blocks (8, 16, 24, 40, 48) and row counts 1, 3, 7, 15 and
  // 130 leave every remainder of the 16/8/4/2/1-row register blocks.
  for (const std::size_t k : {5u, 32u}) {
    for (const std::size_t m : {1u, 3u, 7u, 15u, 130u}) {
      for (const std::size_t n : {8u, 16u, 24u, 40u, 48u}) {
        check_project_map(k, m, n, 2048, false, 0x71E5 + 131 * m + n + k);
      }
    }
  }
}

TEST_P(KernelBackendTest, RffProjectMapMatchesAxpyChainBitExact) {
  // Full-width rows (ldb = ldc = n) at the packing edge cases, up to eight
  // 512-column tiles.
  const std::size_t n = GetParam();
  check_project_map(5, 3, n, n, false, 0x63E7 + n);

  // The trig map on its own: k = 1 with the one A entry 1.0, so each z is
  // exactly its B entry and every output must be the plain fast_sin
  // formula, bit for bit on every table — the encoder's binarization would
  // otherwise flip sign bits between REGHD_KERNEL settings.
  util::Rng rng(0x7816 + n);
  std::vector<double> z(n);
  std::vector<double> phase(n);
  std::vector<double> sin_phase(n);
  for (std::size_t j = 0; j < n; ++j) {
    z[j] = rng.normal(0.0, 3.0);
    phase[j] = rng.phase();
    sin_phase[j] = util::fast_sin(phase[j]);
  }
  if (n >= 64) {
    // Poke lanes into the std::sin fallback path (|2z+b| ≥ 2^30), mixed into
    // otherwise in-range groups: lanes 1 and 17 of 4-lane groups, the first
    // and last lane (0 and 7) of the second 8-lane group, and NaN, +Inf and
    // −Inf lanes, which fail the same range test.
    z[1] = 3.0e9;
    z[17] = -7.5e11;
    z[8] = 6.0e10;
    z[15] = -2.0e9;
    z[33] = std::numeric_limits<double>::quiet_NaN();
    z[42] = std::numeric_limits<double>::infinity();
    z[47] = -std::numeric_limits<double>::infinity();
  }
  std::vector<double> want(n);
  for (std::size_t j = 0; j < n; ++j) {
    want[j] = 0.5 * (util::fast_sin(2.0 * z[j] + phase[j]) - sin_phase[j]);
  }
  const double one = 1.0;
  const auto map = [&](const KernelBackend& kb, std::size_t off, std::size_t len,
                       std::vector<double>& out) {
    kb.rff_project_map(&one, 1, z.data() + off, len, phase.data() + off,
                       sin_phase.data() + off, out.data() + off, len, 1, 1, len);
  };

  for (const KernelBackend* kb : all_available()) {
    std::vector<double> full(n);
    map(*kb, 0, n, full);
    EXPECT_TRUE(same_bits(full, want)) << kb->name;

    // The encoder's weight-tile call shape: 16-element slices at offsets
    // 16·t (the last one short when 16 does not divide n).
    std::vector<double> tiled(n);
    for (std::size_t j0 = 0; j0 < n; j0 += 16) {
      map(*kb, j0, std::min<std::size_t>(16, n - j0), tiled);
    }
    EXPECT_TRUE(same_bits(tiled, want)) << kb->name << " 16-element slices";

    // Lengths one either side of the 8-lane width, at an offset that is not
    // a multiple of 8: each element's value may not depend on where the
    // call's vector groups and scalar tail fall, and nothing outside the
    // slice is written.
    for (const std::size_t len : {7u, 9u, 15u, 17u, 23u, 25u}) {
      const std::size_t off = 3;
      if (off + len > n) {
        continue;
      }
      std::vector<double> part = z;
      map(*kb, off, len, part);
      std::vector<double> expect = z;
      std::copy_n(want.begin() + static_cast<std::ptrdiff_t>(off), len,
                  expect.begin() + static_cast<std::ptrdiff_t>(off));
      EXPECT_TRUE(same_bits(part, expect)) << kb->name << " len " << len;
    }
  }
}

TEST_P(KernelBackendTest, DotRowsMatchesPerRowDotExactly) {
  // Each single-query (nq = 1) dot_rows_multi output must be reduced in
  // exactly its backend's dot_real_real order (the batch-vs-per-row
  // EXPECT_EQ tests in core/ rely on this), including the odd trailing row
  // of the paired-row scan.
  const std::size_t n = GetParam();
  util::Rng rng(0xD075 + n);
  constexpr std::size_t kRows = 5;  // odd: exercises the unpaired final row
  std::vector<double> q(n);
  std::vector<double> bank(kRows * n);
  for (double& x : q) {
    x = rng.normal(0.0, 1.0);
  }
  for (double& x : bank) {
    x = rng.normal(0.0, 1.0);
  }

  for (const KernelBackend* kb : all_available()) {
    std::vector<double> out(kRows);
    kb->dot_rows_multi(bank.data(), n, kRows, q.data(), n, 1, n, out.data());
    for (std::size_t r = 0; r < kRows; ++r) {
      EXPECT_EQ(out[r], kb->dot_real_real(bank.data() + r * n, q.data(), n))
          << kb->name << " row " << r;
    }
  }
}

TEST_P(KernelBackendTest, DotRowsMultiMatchesDotRealRealBitExact) {
  // Every dot_rows_multi output on every table, bitwise:
  // out[q·nrows + r] = dot_real_real(row r, query q). Query counts cover
  // whole 4-query tiles, every leftover count and a single query; row counts
  // cover whole row tiles and every leftover; lengths cover each
  // instantiation's dim plus the edges of the 8- and 32-wide loops. Rows and
  // queries sit 8 bytes past a 64-byte boundary with strides longer than n.
  // Each case runs a second time with NaN and ±Inf planted, so NaN payload
  // propagation must follow the same operation order too.
  const double kInf = std::numeric_limits<double>::infinity();
  for (const std::size_t n : {std::size_t{7}, std::size_t{8}, std::size_t{31},
                              std::size_t{32}, std::size_t{33}, GetParam()}) {
    const std::size_t ld = n + 3;
    const std::size_t ldq = n + 5;
    for (const std::size_t nrows : {1u, 2u, 3u, 4u, 5u, 8u, 16u, 17u}) {
      for (const std::size_t nq : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 13u, 64u}) {
        for (const bool special : {false, true}) {
          util::Rng rng(0x3D07 + 131 * n + 17 * nrows + nq);
          util::AlignedVector<double> bank_storage(1 + nrows * ld);
          util::AlignedVector<double> query_storage(1 + nq * ldq);
          double* const bank = bank_storage.data() + 1;
          double* const queries = query_storage.data() + 1;
          for (std::size_t i = 0; i < nrows * ld; ++i) {
            bank[i] = rng.normal(0.0, 1.0);
          }
          for (std::size_t i = 0; i < nq * ldq; ++i) {
            queries[i] = rng.normal(0.0, 1.0);
          }
          if (special) {
            bank[(nrows / 2) * ld + n / 2] = kInf;
            bank[(nrows - 1) * ld] = -kInf;
            queries[(nq / 2) * ldq + n - 1] = std::numeric_limits<double>::quiet_NaN();
            queries[(nq - 1) * ldq + n / 3] = kInf;
          }
          for (const KernelBackend* kb : all_available()) {
            std::vector<double> want(nq * nrows);
            for (std::size_t j = 0; j < nq; ++j) {
              for (std::size_t r = 0; r < nrows; ++r) {
                want[j * nrows + r] = kb->dot_real_real(bank + r * ld, queries + j * ldq, n);
              }
            }
            std::vector<double> got(nq * nrows, -12345.0);
            kb->dot_rows_multi(bank, ld, nrows, queries, ldq, nq, n, got.data());
            ASSERT_TRUE(same_bits(got, want))
                << kb->name << " n " << n << " nrows " << nrows << " nq " << nq
                << (special ? " (NaN/Inf)" : "");
          }
        }
      }
    }
  }
}

TEST_P(KernelBackendTest, UpdateDotRowsMatchesScalarBitExact) {
  // update_dot_rows on every table, bitwise: the bank afterwards equals
  // scalar add_scaled_real applied to each row with a nonzero coefficient
  // (per-component rounding, so every table must agree with scalar, and a
  // zero coefficient — either sign — leaves its row untouched, −0 components
  // included), and out[r] equals the table's own dot_rows_multi over that
  // bank. Row
  // counts leave an unpaired row; coefficients mix zeros, negatives and
  // subnormals; rows start 8 bytes past a 64-byte boundary and then drift by
  // ld, so add_scaled_real's alignment peel runs at every offset. Each
  // instantiation covers its own dim plus the vector-width edges around 8
  // and 32.
  const double kCoeffs[] = {0.0,   -0.37, 0.25,   std::numeric_limits<double>::denorm_min(),
                            -0.0,  -1e-310, 3.5,  -2.0e-3};
  for (const std::size_t n : {std::size_t{7}, std::size_t{8}, std::size_t{31},
                              std::size_t{32}, std::size_t{33}, GetParam()}) {
    for (const std::size_t rows : {1u, 2u, 3u, 16u, 17u}) {
      const std::size_t ld = n + 3;
      util::Rng rng(0x0BD + 977 * n + rows);
      util::AlignedVector<double> storage(1 + rows * ld);
      double* const bank0 = storage.data() + 1;
      for (std::size_t i = 0; i < rows * ld; ++i) {
        bank0[i] = i % 13 == 0 ? -0.0 : rng.normal(0.0, 1.0);
      }
      std::vector<double> coeff(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        coeff[r] = kCoeffs[(r + n) % std::size(kCoeffs)];
      }
      std::vector<double> q_update(n);
      std::vector<double> q_next(n);
      for (std::size_t i = 0; i < n; ++i) {
        q_update[i] = rng.normal(0.0, 1.0);
        q_next[i] = rng.normal(0.0, 1.0);
      }
      const std::vector<double> before(bank0, bank0 + rows * ld);

      std::vector<double> want_bank = before;
      for (std::size_t r = 0; r < rows; ++r) {
        if (coeff[r] != 0.0) {
          scalar_backend().add_scaled_real(want_bank.data() + r * ld, q_update.data(),
                                           coeff[r], n);
        }
      }

      for (const KernelBackend* kb : all_available()) {
        const std::string what = std::string(kb->name) + " n " + std::to_string(n) +
                                 " rows " + std::to_string(rows);
        std::vector<double> want_out(rows);
        kb->dot_rows_multi(want_bank.data(), ld, rows, q_next.data(), n, 1, n,
                           want_out.data());

        std::copy(before.begin(), before.end(), bank0);
        std::vector<double> out(rows, std::numeric_limits<double>::quiet_NaN());
        kb->update_dot_rows(bank0, ld, rows, coeff.data(), q_update.data(), q_next.data(), n,
                            out.data());
        ASSERT_TRUE(same_bits(std::vector<double>(bank0, bank0 + rows * ld), want_bank))
            << what;
        ASSERT_TRUE(same_bits(out, want_out)) << what;

        // Without a next query the sweep only updates and never writes out.
        std::copy(before.begin(), before.end(), bank0);
        const std::vector<double> untouched(rows, -7.0);
        out = untouched;
        kb->update_dot_rows(bank0, ld, rows, coeff.data(), q_update.data(), nullptr, n,
                            out.data());
        ASSERT_TRUE(same_bits(std::vector<double>(bank0, bank0 + rows * ld), want_bank))
            << what << " (no q_next)";
        ASSERT_TRUE(same_bits(out, untouched)) << what << " (no q_next)";
      }
    }
  }
}

TEST_P(KernelBackendTest, DotRowsBlockMatchesDotRowsExactly) {
  // The fused single-query path feeds dot_rows_block one L1-sized slice of
  // the query at a time; the contract is that any split into 64-multiple
  // blocks reproduces the backend's own dot_rows_multi output bit-for-bit,
  // because the carried state preserves each row's lane-accumulator phase
  // across block boundaries.
  const std::size_t n = GetParam();
  util::Rng rng(0xB10C + n);
  constexpr std::size_t kRows = 5;
  std::vector<double> q(n);
  std::vector<double> bank(kRows * n);
  for (double& x : q) {
    x = rng.normal(0.0, 1.0);
  }
  for (double& x : bank) {
    x = rng.normal(0.0, 1.0);
  }

  for (const KernelBackend* kb : all_available()) {
    std::vector<double> want(kRows);
    kb->dot_rows_multi(bank.data(), n, kRows, q.data(), n, 1, n, want.data());

    for (const std::size_t block : {std::size_t{64}, std::size_t{128},
                                    std::size_t{1024}, n}) {
      if (block == 0) {
        continue;
      }
      std::vector<double> state(kRows * kDotRowsBlockState, 0.0);
      std::vector<double> out(kRows, -12345.0);
      std::vector<const double*> rows(kRows);
      std::size_t j0 = 0;
      while (true) {
        const std::size_t len = std::min(block, n - j0);
        const bool last = j0 + len == n;
        for (std::size_t r = 0; r < kRows; ++r) {
          rows[r] = bank.data() + r * n + j0;
        }
        kb->dot_rows_block(q.data() + j0, rows.data(), kRows, len, last,
                           state.data(), out.data());
        j0 += len;
        if (last) {
          break;
        }
      }
      for (std::size_t r = 0; r < kRows; ++r) {
        EXPECT_EQ(out[r], want[r])
            << kb->name << " block " << block << " row " << r;
      }
    }

    // A single last=true call is the degenerate one-block split: exactly
    // dot_real_real per row.
    std::vector<double> state(kRows * kDotRowsBlockState, 0.0);
    std::vector<double> out(kRows, -12345.0);
    std::vector<const double*> rows(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
      rows[r] = bank.data() + r * n;
    }
    kb->dot_rows_block(q.data(), rows.data(), kRows, n, true, state.data(),
                       out.data());
    for (std::size_t r = 0; r < kRows; ++r) {
      EXPECT_EQ(out[r], kb->dot_real_real(bank.data() + r * n, q.data(), n))
          << kb->name << " row " << r;
    }
  }
}

TEST_P(KernelBackendTest, DotRowsBinaryMatchesPerRowHammingChainExactly) {
  // A bank of binary rows is a ternary bank whose mask rows are all full, so
  // dot_rows_ternary must give out[r] = n − 2·popcount(q XOR row) —
  // integer-exact, so every backend must agree bit-for-bit with the per-row
  // hamming/bipolar_dot chain (the quantized scorer in core/ relies on
  // recovering the exact Hamming distance as (n − out[r]) / 2). Rows include
  // the query itself (distance 0) and its complement-within-dim (distance n)
  // as extremes.
  const std::size_t n = GetParam();
  util::Rng rng(0xB17B + n);
  const std::size_t words = (n + 63) / 64;
  constexpr std::size_t kRows = 5;  // odd: exercises the unpaired final row
  const BinaryHV q = random_binary(n, rng);

  std::vector<std::vector<std::uint64_t>> rows;
  rows.emplace_back(q.words().begin(), q.words().end());  // distance 0
  {
    // Complement within dim (distance n); padding bits stay zero.
    std::vector<std::uint64_t> comp(q.words().begin(), q.words().end());
    for (std::uint64_t& w : comp) {
      w = ~w;
    }
    if (n % 64 != 0) {
      comp.back() &= ~0ULL >> (64 - n % 64);
    }
    rows.push_back(std::move(comp));
  }
  while (rows.size() < kRows) {
    const BinaryHV r = random_binary(n, rng);
    rows.emplace_back(r.words().begin(), r.words().end());
  }

  std::vector<std::uint64_t> bank(kRows * words);
  std::vector<std::uint64_t> full_masks(kRows * words, ~0ULL);
  for (std::size_t r = 0; r < kRows; ++r) {
    std::copy(rows[r].begin(), rows[r].end(), bank.begin() + r * words);
    if (n % 64 != 0) {
      full_masks[r * words + words - 1] = ~0ULL >> (64 - n % 64);
    }
  }

  for (const KernelBackend* kb : all_available()) {
    std::vector<std::int64_t> out(kRows, -12345);
    kb->dot_rows_ternary(q.words().data(), bank.data(), full_masks.data(), words, kRows, n,
                         out.data());
    for (std::size_t r = 0; r < kRows; ++r) {
      // Per-row chain: backend hamming kernel, then d = n − 2h; and the
      // library-level bipolar_dot over views of the same words.
      const std::int64_t h =
          kb->hamming(bank.data() + r * words, q.words().data(), words);
      EXPECT_EQ(out[r], static_cast<std::int64_t>(n) - 2 * h) << kb->name << " row " << r;
      EXPECT_EQ(out[r],
                bipolar_dot(BinaryHVView(n, {bank.data() + r * words, words}),
                            BinaryHVView(n, q.words())))
          << kb->name << " row " << r;
    }
    EXPECT_EQ(out[0], static_cast<std::int64_t>(n)) << kb->name << " self-dot";
    EXPECT_EQ(out[1], -static_cast<std::int64_t>(n)) << kb->name << " complement dot";
  }
}

TEST_P(KernelBackendTest, SignEncodeMatchesPerComponentSignBitExact) {
  // sign_pack sets bit i iff !(v[i] < 0) (so ±0 and NaN set their bit) and
  // zeroes the padding bits. Must be bit-exact on every backend.
  const std::size_t dim = GetParam();
  util::Rng rng(0x5167 + dim);
  RealHV v = random_gaussian(dim, rng);
  if (dim >= 6) {
    v[0] = 0.0;
    v[1] = -0.0;
    v[2] = std::nan("");
    v[3] = std::numeric_limits<double>::infinity();
    v[4] = -std::numeric_limits<double>::infinity();
    v[5] = -std::nan("");
  }
  BinaryHV expected(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    expected.set_bit(i, !(v[i] < 0.0));
  }

  for (const KernelBackend* kb : all_available()) {
    // Poison the word buffer: sign_pack must fully overwrite every word,
    // including zeroing the padding bits of the final one.
    std::vector<std::uint64_t> bits((dim + 63) / 64, ~0ULL);
    kb->sign_pack(v.values().data(), bits.data(), dim);
    EXPECT_TRUE(std::equal(bits.begin(), bits.end(), expected.words().begin()))
        << kb->name;
  }
}

TEST_P(KernelBackendTest, DotRowsTernaryMatchesMaskedBipolarDotExactly) {
  // out[r] = Σ_{mask bit j set} signs_r[j]·q[j] over ±1 values — the packed
  // ternary bank scan. Integer-exact on every backend, and a full-mask row
  // must degenerate to the binary bipolar dot n − 2·hamming of the same sign
  // plane (the quantized scorer in core/ recovers the exact Hamming distance
  // of a binary cluster row as (n − out[r]) / 2).
  const std::size_t n = GetParam();
  util::Rng rng(0x7E12 + n);
  const std::size_t words = (n + 63) / 64;
  constexpr std::size_t kRows = 5;  // odd: exercises any row pairing/tail
  const BinaryHV q = random_binary(n, rng);

  std::vector<BinaryHV> signs;
  std::vector<BinaryHV> masks;
  // Row 0: the query under a full mask (score n). Row 1: its
  // complement-within-dim under a full mask (score −n). Row 2: an all-zero
  // mask (score 0 no matter the signs). Rest: random signs and masks.
  signs.push_back(q);
  {
    BinaryHV full(n);
    for (std::uint64_t& w : full.words()) {
      w = ~0ULL;
    }
    if (n % 64 != 0) {
      full.words().back() &= ~0ULL >> (64 - n % 64);
    }
    masks.push_back(std::move(full));
  }
  {
    std::vector<std::uint64_t> comp(q.words().begin(), q.words().end());
    for (std::uint64_t& w : comp) {
      w = ~w;
    }
    if (n % 64 != 0) {
      comp.back() &= ~0ULL >> (64 - n % 64);
    }
    BinaryHV c(n);
    std::copy(comp.begin(), comp.end(), c.words().begin());
    signs.push_back(std::move(c));
    masks.push_back(masks[0]);
  }
  signs.push_back(random_binary(n, rng));
  masks.emplace_back(n);  // all-zero mask
  while (signs.size() < kRows) {
    signs.push_back(random_binary(n, rng));
    masks.push_back(random_binary(n, rng));
  }

  std::vector<std::uint64_t> sign_bank(kRows * words);
  std::vector<std::uint64_t> mask_bank(kRows * words);
  for (std::size_t r = 0; r < kRows; ++r) {
    std::copy(signs[r].words().begin(), signs[r].words().end(),
              sign_bank.begin() + r * words);
    std::copy(masks[r].words().begin(), masks[r].words().end(),
              mask_bank.begin() + r * words);
  }

  std::vector<std::int64_t> scalar_out;
  for (const KernelBackend* kb : all_available()) {
    std::vector<std::int64_t> out(kRows, -12345);
    kb->dot_rows_ternary(q.words().data(), sign_bank.data(), mask_bank.data(), words,
                         kRows, n, out.data());
    for (std::size_t r = 0; r < kRows; ++r) {
      EXPECT_EQ(out[r], ref_masked_bipolar_dot(signs[r], q, masks[r]))
          << kb->name << " row " << r;
    }
    for (std::size_t r = 0; r < 2; ++r) {  // the full-mask rows
      const std::int64_t h = kb->hamming(sign_bank.data() + r * words, q.words().data(), words);
      EXPECT_EQ(out[r], static_cast<std::int64_t>(n) - 2 * h) << kb->name << " row " << r;
    }
    EXPECT_EQ(out[0], static_cast<std::int64_t>(n)) << kb->name << " self-dot";
    EXPECT_EQ(out[1], -static_cast<std::int64_t>(n)) << kb->name << " complement";
    EXPECT_EQ(out[2], 0) << kb->name << " all-masked row";
    if (kb == &scalar_backend()) {
      scalar_out = out;
    } else {
      EXPECT_EQ(out, scalar_out) << kb->name << " cross-backend mismatch";
    }
  }
}

TEST_P(KernelBackendTest, RffRematerializeMatchesScalarBitExact) {
  // Counter-based projection regeneration must be bit-identical across
  // backends — the encoder's bit-exactness contract (resident and
  // rematerialized storage produce the same encodings on any backend) rests
  // on this. Odd feature counts exercise the unpaired Box–Muller draw, 32 is
  // the serving F, and the fixed row counts leave every 4- and 8-lane tail.
  if (simd_backends().empty()) {
    GTEST_SKIP() << "no SIMD backend available on this host/build";
  }
  for (const KernelBackend* kb : simd_backends()) {
    for (const std::size_t rows :
         {std::min<std::size_t>(GetParam(), 200), std::size_t{1}, std::size_t{7},
          std::size_t{9}, std::size_t{15}, std::size_t{17}}) {
      for (const std::size_t n_features : {1u, 2u, 7u, 10u, 32u}) {
        std::vector<double> want(n_features * rows, -7.0);
        std::vector<double> got(n_features * rows, 7.0);
        scalar_backend().rff_rematerialize(0x5EED, 0.316, 3, rows, n_features,
                                           want.data(), rows);
        kb->rff_rematerialize(0x5EED, 0.316, 3, rows, n_features, got.data(), rows);
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(want[i], got[i]) << kb->name << " rows " << rows << " n_features "
                                     << n_features << " elem " << i;
        }
      }
    }
  }
}

TEST(RffRematerializeTest, TilingIsInvariant) {
  // Any (row0, rows) tiling must reproduce the exact bytes of one full-range
  // call — each row's stream is derived from (seed, absolute row index), so
  // the encoder may regenerate in whatever tile size fits its cache budget.
  constexpr std::size_t kRows = 97;
  constexpr std::size_t kFeatures = 9;
  for (const KernelBackend* kb : all_available()) {
    std::vector<double> full(kFeatures * kRows);
    kb->rff_rematerialize(42, 1.5, 0, kRows, kFeatures, full.data(), kRows);
    for (const std::size_t tile : {1, 5, 16, 64}) {
      for (std::size_t r0 = 0; r0 < kRows; r0 += tile) {
        const std::size_t rn = std::min(kRows, r0 + tile);
        std::vector<double> part(kFeatures * (rn - r0));
        kb->rff_rematerialize(42, 1.5, r0, rn - r0, kFeatures, part.data(), rn - r0);
        for (std::size_t k = 0; k < kFeatures; ++k) {
          for (std::size_t r = r0; r < rn; ++r) {
            ASSERT_EQ(part[k * (rn - r0) + (r - r0)], full[k * kRows + r])
                << kb->name << " tile " << tile << " row " << r << " feature " << k;
          }
        }
      }
    }
  }
}

TEST(RffRematerializeTest, ScalesLinearlyWithStddevAndLooksGaussian) {
  // Weights are draws·stddev, so stddev only rescales the stream; and over
  // many rows the draws must look like the N(0, 1) Box–Muller output.
  constexpr std::size_t kRows = 4096;
  constexpr std::size_t kFeatures = 4;
  std::vector<double> unit(kFeatures * kRows);
  std::vector<double> half(kFeatures * kRows);
  scalar_backend().rff_rematerialize(7, 1.0, 0, kRows, kFeatures, unit.data(), kRows);
  scalar_backend().rff_rematerialize(7, 0.5, 0, kRows, kFeatures, half.data(), kRows);
  double sum = 0.0;
  double sum2 = 0.0;
  for (std::size_t i = 0; i < unit.size(); ++i) {
    ASSERT_EQ(half[i], unit[i] * 0.5) << "elem " << i;
    sum += unit[i];
    sum2 += unit[i] * unit[i];
  }
  const double count = static_cast<double>(unit.size());
  const double mean = sum / count;
  const double var = sum2 / count - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(PackingEdgeCases, KernelBackendTest, ::testing::ValuesIn(kDims),
                         [](const auto& param_info) {
                           return "dim" + std::to_string(param_info.param);
                         });

TEST(KernelDispatchTest, BackendByNameResolvesKnownNames) {
  const KernelBackend* scalar = backend_by_name("scalar");
  ASSERT_NE(scalar, nullptr);
  EXPECT_STREQ(scalar->name, "scalar");

  const KernelBackend* avx2 = backend_by_name("avx2");
  if (cpu_supports_avx2() && avx2_backend() != nullptr) {
    ASSERT_NE(avx2, nullptr);
    EXPECT_STREQ(avx2->name, "avx2");
  } else {
    EXPECT_EQ(avx2, nullptr);
  }

  const KernelBackend* avx512 = backend_by_name("avx512");
  if (avx512_backend() != nullptr) {
    ASSERT_NE(avx512, nullptr);
    EXPECT_STREQ(avx512->name, "avx512");
  } else {
    EXPECT_EQ(avx512, nullptr);
  }

  const KernelBackend* neon = backend_by_name("neon");
  if (neon_backend() != nullptr) {
    ASSERT_NE(neon, nullptr);
    EXPECT_STREQ(neon->name, "neon");
  } else {
    EXPECT_EQ(neon, nullptr);
  }

  EXPECT_EQ(backend_by_name("sse9"), nullptr);
  EXPECT_EQ(backend_by_name(""), nullptr);
}

TEST(KernelDispatchTest, AvailableBackendsListsScalarFirstAndRunnableTablesOnly) {
  const BackendList list = available_backends();
  ASSERT_GE(list.count, 1u);
  EXPECT_EQ(list.tables[0], &scalar_backend());
  for (std::size_t i = 0; i < list.count; ++i) {
    ASSERT_NE(list.tables[i], nullptr) << "slot " << i;
    // Every listed table must be reachable by name and report sane lanes.
    EXPECT_EQ(backend_by_name(list.tables[i]->name), list.tables[i])
        << list.tables[i]->name;
    EXPECT_GE(list.tables[i]->f64_lanes, 1u) << list.tables[i]->name;
  }
  // The optional tables appear iff their accessor says they are runnable.
  const bool has_avx2 =
      std::find(list.tables, list.tables + list.count, avx2_backend()) !=
      list.tables + list.count;
  EXPECT_EQ(has_avx2, avx2_backend() != nullptr);
  const bool has_avx512 =
      std::find(list.tables, list.tables + list.count, avx512_backend()) !=
      list.tables + list.count;
  EXPECT_EQ(has_avx512, avx512_backend() != nullptr);
}

TEST(KernelDispatchTest, ActiveBackendIsOneOfTheTables) {
  const std::string name = active_backend().name;
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "avx512" ||
              name == "neon")
      << "unexpected backend " << name;
  // Whatever won dispatch must be one of the runtime-available tables.
  const BackendList list = available_backends();
  EXPECT_NE(std::find(list.tables, list.tables + list.count, &active_backend()),
            list.tables + list.count)
      << "active backend " << name << " not in available_backends()";
  // REGHD_KERNEL=scalar must force the portable table (the CI scalar job
  // runs the whole suite this way).
  if (const char* env = std::getenv("REGHD_KERNEL")) {
    if (std::string(env) == "scalar") {
      EXPECT_EQ(&active_backend(), &scalar_backend());
    }
  }
}

TEST(KernelDispatchTest, ResolveBackendRequestEnumeratesAvailableBackends) {
  // A known, runnable name resolves without a message.
  std::string message = "unset";
  EXPECT_EQ(resolve_backend_request("scalar", &message), &scalar_backend());
  EXPECT_EQ(message, "unset");

  // An unknown name fails with a diagnostic that names the request and
  // enumerates exactly the backends this host can actually run, in dispatch
  // listing order — so an operator who typos REGHD_KERNEL sees what their
  // machine supports, not a generic error.
  EXPECT_EQ(resolve_backend_request("sse9", &message), nullptr);
  EXPECT_NE(message.find("REGHD_KERNEL=sse9"), std::string::npos) << message;
  std::string expected_list;
  const BackendList list = available_backends();
  for (std::size_t i = 0; i < list.count; ++i) {
    if (i > 0) {
      expected_list += ", ";
    }
    expected_list += list.tables[i]->name;
  }
  EXPECT_NE(message.find("available: " + expected_list), std::string::npos)
      << message;
  EXPECT_NE(message.find("falling back to the scalar backend"), std::string::npos)
      << message;

  // A known-but-unavailable name gets the same enumerating diagnostic (e.g.
  // "neon" on x86, "avx512" on an older core).
  const char* unavailable =
      neon_backend() == nullptr ? "neon"
      : avx512_backend() == nullptr ? "avx512"
                                    : nullptr;
  if (unavailable != nullptr) {
    message.clear();
    EXPECT_EQ(resolve_backend_request(unavailable, &message), nullptr);
    EXPECT_NE(message.find("available: " + expected_list), std::string::npos)
        << message;
  }

  // A null message sink must be tolerated (the dispatcher's stderr path owns
  // the formatting).
  EXPECT_EQ(resolve_backend_request("sse9", nullptr), nullptr);
}

TEST(KernelDispatchTest, OpsRouteThroughActiveBackend) {
  // End-to-end sanity: the ops-layer entry points agree with naive
  // references regardless of which backend is live.
  const std::size_t dim = 1000;
  const TestVectors v = make_vectors(dim, 0x0975);
  expect_close(dot(v.ra, v.ba), ref_dot_real_binary(v.ra, v.ba));
  expect_close(masked_dot(v.ra, v.ba, v.mask), ref_masked_dot(v.ra, v.ba, v.mask));
  EXPECT_EQ(static_cast<std::int64_t>(hamming_distance(v.ba, v.bb)),
            ref_hamming(v.ba, v.bb));
}

}  // namespace
}  // namespace reghd::hdc
