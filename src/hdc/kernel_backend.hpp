// Vectorized kernel backend with runtime CPU dispatch.
//
// Every hot hypervector kernel (the §3.2 prediction dots, Hamming popcounts,
// masked ternary kernels, the add_scaled accumulation family and the RFF
// encode path) exists in several implementations. A ±1 operand is always
// packed bits (BinaryHV, bit 1 ⇔ +1); no kernel takes a dense ±1 vector.
//
//  * scalar — portable C++, branchless where the seed code branched per bit
//             (sign application via IEEE-754 sign-bit XOR instead of a
//             compare per component). Bit-exact with the original reference
//             loops: identical values are added in identical order.
//  * avx2   — AVX2+FMA intrinsics compiled in a separate translation unit
//             with -mavx2 -mfma so the rest of the build stays portable.
//             Integer kernels are bit-exact with scalar; real kernels use
//             multiple accumulators and therefore differ only by summation
//             order (≤ a few ULP).
//  * avx512 — AVX-512F/BW widening of the avx2 table (512-bit reductions,
//             per-component kernels, the 8-lane RFF regenerators and trig
//             map, and the fused projection + trig map encode kernel;
//             VPOPCNTDQ-vectorized popcount family when the CPU reports
//             avx512_vpopcntdq). Kernels the wider ISA does not improve are
//             inherited from the avx2 table.
//  * neon   — aarch64 NEON (baseline on that architecture); the x86 tables
//             are compiled out there and vice versa.
//
// The active backend is resolved exactly once, on first use:
//   1. REGHD_KERNEL=scalar|avx2|avx512|neon environment override (an
//      unavailable request falls back to scalar with a warning on stderr
//      that enumerates the backends actually available on this host);
//   2. otherwise the widest table the binary carries whose ISA the CPU
//      reports: avx512 (F+BW, with OS XSAVE state for ZMM/opmask), then
//      avx2 (+fma), then neon, else scalar.
//
// ops.cpp and encoding.cpp route through active_backend(); tests and the
// microbench harness iterate available_backends() to pin the
// backend-equivalence properties over every table the host can run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace reghd::hdc {

/// Per-row carried-state stride (in doubles) of dot_rows_block. Sized for
/// the widest backend: 4 × 8 f64 lanes (AVX-512's four 512-bit accumulator
/// registers); narrower backends use a prefix of each row's slot.
inline constexpr std::size_t kDotRowsBlockState = 32;

/// NEON f64 lane width. A compile-time constant (not read from the table) so
/// x86 builds — where the NEON table is compiled out — can still reason
/// about the embedded target's SIMD width (see perf/device_profile.cpp).
inline constexpr unsigned kNeonF64Lanes = 2;

/// Table of raw-pointer kernels. `n` counts components; `words` counts
/// 64-bit storage words of bit-packed operands (padding bits are zero, an
/// invariant BinaryHV maintains).
struct KernelBackend {
  const char* name;

  /// f64 SIMD lanes this table's real kernels process per vector op (1 for
  /// scalar, 4 for avx2, 8 for avx512, 2 for neon). Informational — used by
  /// perf/device_profile's per-lane cost estimates and the bench report.
  unsigned f64_lanes;

  /// Σ a[i]·b[i].
  double (*dot_real_real)(const double* a, const double* b, std::size_t n);
  /// Σ ±a[i] with the sign taken from packed bits (bit 1 ⇔ +1).
  double (*dot_real_binary)(const double* a, const std::uint64_t* bits, std::size_t n);
  /// Σ over mask-set dims of ±a[i], signs from packed bits.
  double (*masked_dot)(const double* a, const std::uint64_t* signs,
                       const std::uint64_t* mask, std::size_t n);
  /// popcount(a XOR b) over whole words.
  std::int64_t (*hamming)(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t words);
  /// a[i] += c·b[i].
  void (*add_scaled_real)(double* a, const double* b, double c, std::size_t n);
  /// a[i] += ±c, signs from packed bits. Each slot adds exactly +c or −c (a
  /// sign flip, no multiply), so an integer-valued accumulator stays exact.
  void (*add_scaled_binary)(double* a, const std::uint64_t* bits, double c,
                            std::size_t n);
  /// Shard-merge accumulation over accumulator banks:
  ///   acc[i] += rep[i] − base[i]
  /// with each component rounded as one subtract then one add. Every
  /// component is independent (no cross-lane accumulation, no multiply), so
  /// the AVX2 lane-parallel replay is bit-identical to scalar — the
  /// shard-merge order-invariance proofs rely on that.
  void (*merge_accumulate)(double* acc, const double* rep, const double* base,
                           std::size_t n);
  /// a[i] *= c.
  void (*scale_real)(double* a, double c, std::size_t n);
  /// In-place RFF trig map: z[i] ← ½·(sin(2·z[i] + phase[i]) − sin_phase[i]),
  /// with sine evaluated by util::fast_sin. The AVX2 and AVX-512 versions
  /// replay fast_sin's exact per-element operation sequence 4 and 8 lanes at
  /// a time (their TUs are built with -ffp-contract=off); a lane whose
  /// argument fails |2·z + phase| < 2³⁰ (NaN and ±Inf included) is redone
  /// with std::sin, the same escape fast_sin takes. Every element is
  /// independent, so the result is bit-identical to scalar for any length
  /// and offset.
  void (*rff_trig_map)(double* z, const double* phase, const double* sin_phase,
                       std::size_t n);
  /// Counter-based regeneration of Gaussian RFF projection rows — the
  /// memory-elision twin of a resident projection matrix. Writes the weights
  /// of hyperspace rows [row0, row0 + rows) in feature-major (transposed)
  /// layout: out[k·ld + r] = w_{row0+r, k} for k < n_features, r < rows —
  /// exactly the B-operand layout rff_project_map streams, so a tile can be
  /// regenerated into L1/L2 scratch and projected in place.
  ///
  /// Derivation (the bit-exactness contract; see DESIGN.md): row j's stream
  /// seed is the (j+1)-th SplitMix64 output of `seed`; weight pair (2p, 2p+1)
  /// of row j draws two further SplitMix64 outputs from that row seed (a
  /// pure counter → any tile of any row range regenerates independently),
  /// converts them to uniforms u₁ ∈ (0,1], u₂ ∈ [0,1), and maps them through
  /// Box–Muller with util::fast_log / fast_cos / fast_sin:
  ///   w[2p] = (√(−2·ln u₁)·cos(2π·u₂))·stddev,
  ///   w[2p+1] = (√(−2·ln u₁)·sin(2π·u₂))·stddev.
  /// Every operation is branch-free with a fixed order; sqrt is IEEE
  /// correctly rounded in every backend, so the AVX2 (4-lane) and AVX-512
  /// (8-lane) replays are bit-identical to scalar — and any tiling of
  /// (row0, rows) produces the identical weights.
  void (*rff_rematerialize)(std::uint64_t seed, double stddev, std::size_t row0,
                            std::size_t rows, std::size_t n_features, double* out,
                            std::size_t ld);
  /// Fused single-query projection: out[r] = Σ_k x[k] · w_{row0+r, k} for
  /// r < rows, with the weights derived exactly as rff_rematerialize above
  /// (same seed/counter scheme, same Box–Muller operation sequence) but
  /// consumed in registers — the weight tile is never stored. Each out[r]
  /// accumulates with k strictly ascending from 0.0, each contribution
  /// rounded as a separate multiply then add (no FMA), so the result is
  /// bit-identical to rff_rematerialize into a scratch tile followed by an
  /// add_scaled_real chain — and bit-identical across
  /// backends (per-component: each out[r] has one fixed scalar operation
  /// sequence). This is the B = 1 latency kernel: a batch amortizes the
  /// tile store over its rows, a single query gets nothing back for it.
  void (*rff_remat_dot)(std::uint64_t seed, double stddev, std::size_t row0,
                        std::size_t rows, const double* x, std::size_t n_features,
                        double* out);
  /// The RFF encoder's projection and trig map in one pass (write-only C)
  /// over row-major operands:
  ///   c[r·ldc + j] = ½·(fast_sin(2·z + phase[j]) − sin_phase[j]),
  ///   z = Σ_k a[r·lda + k] · b[k·ldb + j]        (r < m, j < n)
  /// Contract: each z is the axpy chain — it starts at +0.0 and adds
  /// a[r·lda + k] · b[k·ldb + j] with k strictly ascending, each term rounded
  /// as a separate multiply then add (no FMA), exactly as zero-fill followed
  /// by one add_scaled_real per k — and then takes rff_trig_map's
  /// per-element sequence. So every table is bit-identical to that
  /// composition; only the cache and register blocking differ. The scalar and
  /// NEON tables zero C, run a blocked accumulate (NEON register-blocks 8
  /// columns of one row) and map each row (detail::rff_project_map_composed).
  /// The AVX2 table register-blocks 16 columns of one row; the AVX-512 table
  /// holds 16 accumulators across all of k in every panel (4 rows × 32,
  /// 8 rows × 16 or 16 rows × 8 columns), so the rematerialized encoder's
  /// 16-column weight tiles (ldb = 16, ldc = D) run at full vector width.
  /// Both map each register block the moment its k loop ends: the
  /// projection never makes a second pass over C, and C is never zero-filled
  /// or reloaded. The RFF encoder's batch, per-row and resident-slice paths
  /// all project through this one entry.
  void (*rff_project_map)(const double* a, std::size_t lda, const double* b,
                          std::size_t ldb, const double* phase,
                          const double* sin_phase, double* c, std::size_t ldc,
                          std::size_t m, std::size_t k, std::size_t n);
  /// Bank scoring of a query block, Q·Bankᵀ:
  ///   out[q·nrows + r] = Σ_j rows[r·ld + j] · queries[q·ldq + j]
  /// for r < nrows, q < nq. Each output is reduced in exactly the order of
  /// this backend's dot_real_real(rows + r·ld, queries + q·ldq, n) —
  /// bit-identical to nrows·nq separate calls — but the loads are shared:
  /// the AVX2 and AVX-512 tables score register tiles of several queries ×
  /// several rows, so each bank row is streamed once per tile of queries
  /// rather than once per query. nq = 1 is the single-query bank scan (row
  /// pairs share every query load), which is what the leftover queries of a
  /// block run too. The scalar and NEON tables compose the entry from their
  /// dot_real_real (detail::dot_rows_multi_composed). No output may overlap
  /// an input.
  void (*dot_rows_multi)(const double* rows, std::size_t ld, std::size_t nrows,
                         const double* queries, std::size_t ldq, std::size_t nq,
                         std::size_t n, double* out);
  /// One training sweep over a bank: the Eq. 7/8 updates of one sample, then
  /// the next sample's Eq. 5 scan. For every r < num_rows with coeff[r] ≠ 0,
  ///   rows[r·ld + j] += coeff[r] · q_update[j]   (j < n)
  /// rounded exactly as add_scaled_real (mul then add; a zero coefficient
  /// leaves its row untouched). Then, when q_next is non-null,
  ///   out[r] = Σ_j rows[r·ld + j] · q_next[j]
  /// over the updated rows, reduced exactly as this backend's dot_rows_multi
  /// (and so its dot_real_real). So the result is bit-identical to
  /// detail::update_dot_rows_composed, which the scalar and NEON tables use
  /// as-is; the AVX2 and AVX-512 tables update and score each row pair in
  /// one pass, so a training sample streams the bank once instead of twice. Neither query may overlap the bank.
  void (*update_dot_rows)(double* rows, std::size_t ld, std::size_t num_rows,
                          const double* coeff, const double* q_update, const double* q_next,
                          std::size_t n, double* out);
  /// Blocked bank scoring with carried per-row reduction state — the fused
  /// single-query fast path scores D-block slices of the bank as they are
  /// encoded, without ever materializing the full query. The caller streams
  /// the query in consecutive blocks: `q` points at the current block,
  /// `rows[r]` at row r's slice for the same block (pre-offset by the
  /// caller), `len` is the block's component count, and `state` is
  /// num_rows × kDotRowsBlockState doubles, zero-initialized before the
  /// first block and carried untouched between calls. Every non-final block
  /// length must be a multiple of 64; `last` is true exactly on the final
  /// call, which writes out[r].
  ///
  /// Contract: out[r] is bit-identical to this backend's
  /// dot_real_real(row_r, q, total_n) over the concatenated blocks. The
  /// scalar table carries its single running sum; SIMD tables carry their
  /// vector accumulators in `state` (64-multiple boundaries keep the lane
  /// phase of the main loop intact) and run their horizontal-reduction and
  /// tail phases only on the final call — replaying dot_real_real's exact
  /// operation sequence.
  void (*dot_rows_block)(const double* q, const double* const* rows,
                         std::size_t num_rows, std::size_t len, bool last,
                         double* state, double* out);
  /// Packed-bank ternary scoring: the masked XNOR+popcount bipolar dot of a
  /// packed binary query against each row of a 2-bit-plane bank —
  ///   out[r] = 2·popcount(XNOR(q, signs[r·ld…]) ∧ masks[r·ld…])
  ///            − popcount(masks[r·ld…])
  /// for r < num_rows, i.e. per row Σ over mask-set dims of the bipolar
  /// product of the sign bits. `ld` counts 64-bit words per bank row in both
  /// planes; the word count per row is ⌈n/64⌉ and padding/mask bits beyond n
  /// are zero (the BinaryHV invariant), so whole-word popcounts need no edge
  /// masking. A full (all-ones up to n) mask row degenerates to the binary
  /// bipolar dot n − 2·hamming(q, signs_r) — which is how binary clusters and
  /// binarized model rows ride in the same bank as ternary ones.
  /// Integer-exact, bit-identical across backends.
  void (*dot_rows_ternary)(const std::uint64_t* q, const std::uint64_t* signs,
                           const std::uint64_t* masks, std::size_t ld,
                           std::size_t num_rows, std::size_t n, std::int64_t* out);
  /// Packed sign binarization of one encoded row: bit i of `bits` =
  /// !(v[i] < 0), so −0 and NaN set their bit (+1).
  /// Every word is written, padding bits of the final one zero. Bit-exact
  /// across backends.
  void (*sign_pack)(const double* v, std::uint64_t* bits, std::size_t n);
};

/// The portable backend; always available.
[[nodiscard]] const KernelBackend& scalar_backend() noexcept;

/// The AVX2 backend, or nullptr when the binary was built without AVX2
/// support or the CPU lacks avx2/fma.
[[nodiscard]] const KernelBackend* avx2_backend() noexcept;

/// The AVX-512 backend, or nullptr when the binary was built without it or
/// the CPU/OS lacks avx512f+avx512bw with ZMM/opmask state enabled. The
/// returned table uses VPOPCNTDQ popcount kernels when the CPU reports
/// avx512_vpopcntdq, scalar-POPCNT ones otherwise — same name, same results.
[[nodiscard]] const KernelBackend* avx512_backend() noexcept;

/// The aarch64 NEON backend, or nullptr on other architectures. NEON is
/// baseline on aarch64, so no runtime CPU check is needed.
[[nodiscard]] const KernelBackend* neon_backend() noexcept;

/// True when the running CPU reports avx2 and fma.
[[nodiscard]] bool cpu_supports_avx2() noexcept;

/// True when the CPU reports avx512f+avx512bw and the OS has enabled the
/// ZMM/opmask register state (XCR0 via xgetbv).
[[nodiscard]] bool cpu_supports_avx512() noexcept;

/// True when cpu_supports_avx512() and the CPU also reports the VPOPCNTDQ
/// extension (vectorized 64-bit popcount).
[[nodiscard]] bool cpu_supports_avx512_vpopcntdq() noexcept;

/// Resolves a backend by name ("scalar", "avx2", "avx512" or "neon");
/// returns nullptr for an unknown name or an unavailable backend. Exposed
/// for tests and benches.
[[nodiscard]] const KernelBackend* backend_by_name(const char* name) noexcept;

/// Every backend available at runtime, in resolution-preference order
/// scalar, avx2, avx512, neon (scalar is always present, so count ≥ 1).
struct BackendList {
  const KernelBackend* tables[4] = {nullptr, nullptr, nullptr, nullptr};
  std::size_t count = 0;
};
[[nodiscard]] BackendList available_backends() noexcept;

/// Resolves a REGHD_KERNEL request string. Returns the chosen table on
/// success; otherwise returns nullptr and, when `message` is non-null,
/// fills it with the fallback warning — which enumerates the backends
/// actually available on this host. Exposed so tests can pin the message.
[[nodiscard]] const KernelBackend* resolve_backend_request(const char* request,
                                                           std::string* message);

/// The backend every hdc:: kernel routes through. Resolved once, on first
/// call (REGHD_KERNEL override, then CPU detection); stable thereafter.
[[nodiscard]] const KernelBackend& active_backend() noexcept;

namespace detail {

/// KernelBackend::dot_rows_multi composed from a table's own Dot
/// (dot_real_real), one call per (query, row) pair — the contract's
/// definition, and the whole kernel on the tables without a tiled one.
template <auto Dot>
void dot_rows_multi_composed(const double* rows, std::size_t ld, std::size_t nrows,
                             const double* queries, std::size_t ldq, std::size_t nq,
                             std::size_t n, double* out) {
  for (std::size_t q = 0; q < nq; ++q) {
    for (std::size_t r = 0; r < nrows; ++r) {
      out[q * nrows + r] = Dot(rows + r * ld, queries + q * ldq, n);
    }
  }
}

/// KernelBackend::update_dot_rows composed from a table's own AddScaled
/// (add_scaled_real) and DotRowsMulti (dot_rows_multi): update every row with
/// a nonzero coefficient, then scan the bank — the contract's definition, and
/// the whole kernel on every table without a fused one.
template <auto AddScaled, auto DotRowsMulti>
void update_dot_rows_composed(double* rows, std::size_t ld, std::size_t num_rows,
                              const double* coeff, const double* q_update,
                              const double* q_next, std::size_t n, double* out) {
  for (std::size_t r = 0; r < num_rows; ++r) {
    if (coeff[r] != 0.0) {
      AddScaled(rows + r * ld, q_update, coeff[r], n);
    }
  }
  if (q_next != nullptr) {
    DotRowsMulti(rows, ld, num_rows, q_next, n, 1, n, out);
  }
}

}  // namespace detail

}  // namespace reghd::hdc
