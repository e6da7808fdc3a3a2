#include "hdc/encoding.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "hdc/kernel_backend.hpp"
#include "hdc/ops.hpp"
#include "hdc/random_hv.hpp"
#include "obs/telemetry.hpp"
#include "util/fast_trig.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace reghd::hdc {

std::string to_string(EncoderKind kind) {
  switch (kind) {
    case EncoderKind::kNonlinearFeature:
      return "nonlinear";
    case EncoderKind::kRffProjection:
      return "rff";
    case EncoderKind::kIdLevel:
      return "idlevel";
    case EncoderKind::kTemporal:
      return "temporal";
  }
  REGHD_INTERNAL_CHECK(false, "unhandled EncoderKind " << static_cast<int>(kind));
}

EncoderKind encoder_kind_from_string(const std::string& name) {
  if (name == "nonlinear") {
    return EncoderKind::kNonlinearFeature;
  }
  if (name == "rff") {
    return EncoderKind::kRffProjection;
  }
  if (name == "idlevel") {
    return EncoderKind::kIdLevel;
  }
  if (name == "temporal") {
    return EncoderKind::kTemporal;
  }
  throw std::invalid_argument("unknown encoder kind '" + name +
                              "' (expected nonlinear, rff, idlevel, or temporal)");
}

std::string to_string(ProjectionStorage storage) {
  switch (storage) {
    case ProjectionStorage::kResident:
      return "resident";
    case ProjectionStorage::kRematerialized:
      return "rematerialized";
  }
  REGHD_INTERNAL_CHECK(false,
                       "unhandled ProjectionStorage " << static_cast<int>(storage));
}

ProjectionStorage projection_storage_from_string(const std::string& name) {
  if (name == "resident") {
    return ProjectionStorage::kResident;
  }
  if (name == "rematerialized") {
    return ProjectionStorage::kRematerialized;
  }
  throw std::invalid_argument("unknown projection storage '" + name +
                              "' (expected resident or rematerialized)");
}

Encoder::Encoder(EncoderConfig config) : config_(config) {
  REGHD_CHECK(config_.input_dim > 0, "encoder requires input_dim > 0");
  REGHD_CHECK(config_.dim > 0, "encoder requires dim > 0");
}

void Encoder::check_features(std::span<const double> features) const {
  REGHD_CHECK(features.size() == config_.input_dim,
              "feature count " << features.size() << " does not match encoder input_dim "
                               << config_.input_dim);
}

RealHV Encoder::encode_real(std::span<const double> features) const {
  check_features(features);
  RealHV out(config_.dim);
  encode_real_into(features, out.values().data());
  return out;
}

void Encoder::encode_real_block(std::span<const double> features, std::size_t j0,
                                std::size_t len, double* out) const {
  (void)features;
  (void)j0;
  (void)len;
  (void)out;
  REGHD_INTERNAL_CHECK(false, "encode_real_block called on an encoder without block "
                              "support (check supports_block_encode() first)");
}

EncodedSample Encoder::encode(std::span<const double> features) const {
  const obs::StageTimer timer(obs::Histo::kEncodeRowNs);
  obs::count(obs::Counter::kEncodeRows);
  EncodedSample out;
  out.real = encode_real(features);
  out.binary = out.real.sign_packed();
  const auto v = out.real.values();
  const double norm2 = active_backend().dot_real_real(v.data(), v.data(), v.size());
  out.real_norm2 = norm2;
  out.real_norm = std::sqrt(norm2);
  return out;
}

void Encoder::check_arena(std::span<const double> rows_flat, std::size_t num_rows,
                          const EncodedArenaRef& out) const {
  REGHD_CHECK(rows_flat.size() == num_rows * config_.input_dim,
              "encode_batch_into: flat buffer of "
                  << rows_flat.size() << " doubles does not hold " << num_rows
                  << " rows of " << config_.input_dim << " features");
  REGHD_CHECK(out.dim == config_.dim, "encode_batch_into: arena dim "
                                          << out.dim << " does not match encoder dim "
                                          << config_.dim);
  REGHD_CHECK(out.words_per_row == (config_.dim + 63) / 64,
              "encode_batch_into: arena words_per_row " << out.words_per_row
                                                        << " is wrong for dim "
                                                        << config_.dim);
  REGHD_CHECK(num_rows == 0 || (out.real != nullptr && out.binary != nullptr &&
                                out.norm != nullptr && out.norm2 != nullptr),
              "encode_batch_into: arena planes must be non-null");
}

void Encoder::finalize_encoded_row(const EncodedArenaRef& out, std::size_t row) const {
  const KernelBackend& kb = active_backend();
  const std::size_t d = config_.dim;
  const double* z = out.real + row * d;
  kb.sign_pack(z, out.binary + row * out.words_per_row, d);
  const double norm2 = kb.dot_real_real(z, z, d);
  out.norm2[row] = norm2;
  out.norm[row] = std::sqrt(norm2);
}

void Encoder::encode_batch_into(std::span<const double> rows_flat, std::size_t num_rows,
                                const EncodedArenaRef& out, std::size_t threads) const {
  check_arena(rows_flat, num_rows, out);
  const obs::StageTimer timer(obs::Histo::kEncodeBatchNs);
  obs::count(obs::Counter::kEncodeBatches);
  obs::count(obs::Counter::kEncodeRows, num_rows);
  const std::size_t n = config_.input_dim;
  util::parallel_for(
      num_rows,
      [&](std::size_t i) {
        double* row = out.real + i * config_.dim;
        std::fill(row, row + config_.dim, 0.0);  // the arena hands over raw planes
        encode_real_into(rows_flat.subspan(i * n, n), row);
        finalize_encoded_row(out, i);
      },
      threads);
}

std::vector<EncodedSample> Encoder::encode_batch(std::span<const double> rows_flat,
                                                 std::size_t num_rows,
                                                 std::size_t threads) const {
  const std::size_t n = config_.input_dim;
  REGHD_CHECK(rows_flat.size() == num_rows * n,
              "encode_batch: flat buffer of " << rows_flat.size()
                                              << " doubles does not hold " << num_rows
                                              << " rows of " << n << " features");
  std::vector<EncodedSample> out(num_rows);
  util::parallel_for(
      num_rows,
      [&](std::size_t i) { out[i] = encode(rows_flat.subspan(i * n, n)); },
      threads);
  return out;
}

// ---------------------------------------------------------------------------
// NonlinearFeatureEncoder (Eq. 1)
// ---------------------------------------------------------------------------

NonlinearFeatureEncoder::NonlinearFeatureEncoder(EncoderConfig config)
    : Encoder(config) {
  util::Rng rng(config_.seed);
  util::Rng base_rng = rng.split();
  util::Rng phase_rng = rng.split();
  bases_ = random_bipolar_set(config_.input_dim, config_.dim, base_rng);
  phase_.resize(config_.dim);
  cos_phase_.resize(config_.dim);
  sin_phase_.resize(config_.dim);
  for (std::size_t j = 0; j < config_.dim; ++j) {
    phase_[j] = phase_rng.phase();
    cos_phase_[j] = std::cos(phase_[j]);
    sin_phase_[j] = std::sin(phase_[j]);
  }
}

void NonlinearFeatureEncoder::encode_real_into(std::span<const double> features,
                                               double* out) const {
  const std::size_t d = config_.dim;
  const std::size_t n = config_.input_dim;

  // Factored Eq. 1:
  //   H_j = cos(b_j)·g_j − sin(b_j)·s,
  //   g_j = Σ_k B_{k,j} · (sin 2f_k)/2,   s = Σ_k sin²f_k.
  std::vector<double> g(d, 0.0);
  double s = 0.0;
  const KernelBackend& kb = active_backend();
  for (std::size_t k = 0; k < n; ++k) {
    const double half_sin2 = 0.5 * std::sin(2.0 * features[k]);
    const double sinf = std::sin(features[k]);
    s += sinf * sinf;
    // g += half_sin2 · B_k — the packed ±1 axpy, which adds exactly
    // ±half_sin2 per component (the product with ±1.0, bit for bit).
    kb.add_scaled_binary(g.data(), bases_[k].words().data(), half_sin2, d);
  }

  for (std::size_t j = 0; j < d; ++j) {
    out[j] = cos_phase_[j] * g[j] - sin_phase_[j] * s;
  }
}

RealHV NonlinearFeatureEncoder::encode_reference(std::span<const double> features) const {
  check_features(features);
  RealHV out(config_.dim);
  for (std::size_t k = 0; k < config_.input_dim; ++k) {
    const BinaryHV& base = bases_[k];
    for (std::size_t j = 0; j < config_.dim; ++j) {
      const double arg = features[k] * static_cast<double>(base.bipolar(j));
      out[j] += std::cos(arg + phase_[j]) * std::sin(arg);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// RffProjectionEncoder
// ---------------------------------------------------------------------------

RffProjectionEncoder::RffProjectionEncoder(EncoderConfig config) : Encoder(config) {
  REGHD_CHECK(config_.projection_stddev >= 0.0,
              "projection stddev must be non-negative, got " << config_.projection_stddev);
  const double stddev =
      config_.projection_stddev > 0.0
          ? config_.projection_stddev
          : 1.0 / std::sqrt(static_cast<double>(config_.input_dim));  // auto bandwidth
  util::Rng rng(config_.seed);
  util::Rng proj_rng = rng.split();
  util::Rng phase_rng = rng.split();
  stddev_ = stddev;
  // The weights are a pure function of (proj_seed_, row, feature) through
  // the counter-based rff_rematerialize kernel — never of a sequential
  // generator — so any row tile can be regenerated independently. Resident
  // mode materializes all D rows once, here; rematerialized mode stores
  // nothing and regenerates them per encoding thread (weights()) or tile by
  // tile inside the encode loops. Either way the phase stream below is
  // untouched (phase_rng stays the second split).
  proj_seed_ = proj_rng.bits();
  if (config_.projection_storage == ProjectionStorage::kResident) {
    projection_t_.resize(config_.dim * config_.input_dim);
    materialize_rows(0, config_.dim, projection_t_.data(), config_.dim);
  }
  phase_.resize(config_.dim);
  sin_phase_.resize(config_.dim);
  for (std::size_t j = 0; j < config_.dim; ++j) {
    phase_[j] = phase_rng.phase();
    // fast_sin here too, so z = 0 gives sin(b_j) − sin_phase_[j] == 0 exactly.
    sin_phase_[j] = util::fast_sin(phase_[j]);
  }
}

void RffProjectionEncoder::materialize_rows(std::size_t row0, std::size_t rows,
                                            double* out, std::size_t ld) const {
  active_backend().rff_rematerialize(proj_seed_, stddev_, row0, rows,
                                     config_.input_dim, out, ld);
}

const double* RffProjectionEncoder::weights() const {
  if (config_.projection_storage == ProjectionStorage::kResident) {
    return projection_t_.data();
  }
  const std::size_t d = config_.dim;
  const std::size_t n = config_.input_dim;
  if (n > kRematCacheBytes / sizeof(double) / d) {
    return nullptr;
  }
  // One regenerated projection per thread. A serving worker or trainer
  // encodes through one encoder for its whole life, so it regenerates the
  // projection once instead of once per query, batch or update. d == 0 marks
  // the empty cache (every encoder has D > 0). resize never shrinks
  // capacity, so switching between budget-sized keys stays off the
  // allocator once the largest has been seen.
  struct Cache {
    std::uint64_t seed = 0;
    std::uint64_t stddev_bits = 0;
    std::size_t n = 0;
    std::size_t d = 0;
    std::vector<double> weights;
  };
  thread_local Cache cache;
  const auto stddev_bits = std::bit_cast<std::uint64_t>(stddev_);
  if (cache.d != d || cache.n != n || cache.seed != proj_seed_ ||
      cache.stddev_bits != stddev_bits) {
    cache.d = 0;  // stays empty if the resize throws
    cache.weights.resize(n * d);
    materialize_rows(0, d, cache.weights.data(), d);
    cache.seed = proj_seed_;
    cache.stddev_bits = stddev_bits;
    cache.n = n;
    cache.d = d;
  }
  return cache.weights.data();
}

void RffProjectionEncoder::encode_real_into(std::span<const double> features,
                                            double* out) const {
  // One row through rff_project_map: z_j = Σ_k x_k · w_{j,k}, accumulated
  // from +0.0 with the feature index ascending, mul then add — the rounding
  // sequence of a naive per-row dot, under every kernel backend — then the
  // trig map: product-to-sum turns the paper's cos(z+b)·sin(z) into
  // ½·(sin(2z+b) − sin(b)), one sine per component, evaluated with
  // util::fast_sin (see fast_trig.hpp; identical values under every kernel
  // backend). A 1-row batch of encode_batch_into, bit for bit.
  const std::size_t d = config_.dim;
  const std::size_t n = config_.input_dim;
  const KernelBackend& kb = active_backend();
  if (const double* w = weights()) {
    kb.rff_project_map(features.data(), n, w, d, phase_.data(), sin_phase_.data(), out,
                       d, 1, n, d);
    return;
  }
  // A rematerialized projection over the budget: regenerate
  // 16-hyperspace-row tiles of the weights and project each in place (a
  // 1×n × n×tile projection).
  constexpr std::size_t kTile = 16;
  // Reused across calls (resize never shrinks capacity): the serving
  // runtime's steady-state predict path must not touch the allocator.
  thread_local std::vector<double> scratch;
  scratch.resize(n * kTile);
  for (std::size_t j0 = 0; j0 < d; j0 += kTile) {
    const std::size_t tile = std::min(kTile, d - j0);
    kb.rff_rematerialize(proj_seed_, stddev_, j0, tile, n, scratch.data(), tile);
    kb.rff_project_map(features.data(), n, scratch.data(), tile, phase_.data() + j0,
                       sin_phase_.data() + j0, out + j0, d, 1, n, tile);
  }
}

void RffProjectionEncoder::encode_real_block(std::span<const double> features,
                                             std::size_t j0, std::size_t len,
                                             double* out) const {
  check_features(features);
  const std::size_t d = config_.dim;
  REGHD_CHECK(j0 <= d && len <= d - j0, "encode_real_block: slice ["
                                            << j0 << ", " << j0 + len
                                            << ") exceeds dim " << d);
  if (len == 0) {
    return;
  }
  const std::size_t n = config_.input_dim;
  const KernelBackend& kb = active_backend();
  if (const double* w = weights()) {
    // Columns [j0, j0+len) of the full projection — identical per-component
    // accumulation order to the full encode.
    kb.rff_project_map(features.data(), n, w + j0, d, phase_.data() + j0,
                       sin_phase_.data() + j0, out, len, 1, n, len);
    return;
  }
  // A rematerialized projection over the budget. Fused
  // regenerate-and-project: a single query gets nothing back for storing a
  // weight tile (the batch arena amortizes the tile over its rows; B = 1
  // cannot), so the block's pre-activation values come out of rff_remat_dot
  // with the weights consumed in registers. The kernel's contract pins each
  // component to the exact rematerialize + gemm chain, and each row's draw
  // stream is keyed on its absolute index, so this block equals the same
  // slice of the full encoding bit-for-bit.
  kb.rff_remat_dot(proj_seed_, stddev_, j0, len, features.data(), n, out);
  kb.rff_trig_map(out, phase_.data() + j0, sin_phase_.data() + j0, len);
}

void RffProjectionEncoder::encode_batch_into(std::span<const double> rows_flat,
                                             std::size_t num_rows,
                                             const EncodedArenaRef& out,
                                             std::size_t threads) const {
  check_arena(rows_flat, num_rows, out);
  const obs::StageTimer timer(obs::Histo::kEncodeBatchNs);
  obs::count(obs::Counter::kEncodeBatches);
  obs::count(obs::Counter::kEncodeRows, num_rows);
  const std::size_t d = config_.dim;
  const std::size_t n = config_.input_dim;
  // With the whole F×D transposed weight matrix in memory (resident, or
  // this thread's rematerialized copy, resolved once here and read by every
  // worker), row blocks share each cache tile of it — the GEMM streams W_t
  // once per block of 16 rows instead of once per row, cutting projection
  // memory traffic ~16×.
  const double* w = weights();
  // A rematerialized projection over the budget regenerates all F×D
  // weights once per sample block, so each worker takes one block of
  // ⌈rows / workers⌉ rows (at least 64): every weight tile is regenerated
  // once per worker per batch. Legal because the projection's per-element
  // rounding sequence (feature index ascending from +0.0, mul then add) is
  // invariant to both the sample blocking and the hyperspace tiling; every
  // row stays bit-identical to the per-row path, and to the resident path,
  // for any thread count.
  constexpr std::size_t kResidentRowBlock = 16;
  constexpr std::size_t kMinRematRowBlock = 64;
  constexpr std::size_t kRematTile = 16;  // hyperspace rows per scratch tile
  const std::size_t workers = threads != 0 ? threads : util::default_thread_count();
  const std::size_t row_block =
      w == nullptr ? std::max(kMinRematRowBlock, (num_rows + workers - 1) / workers)
                   : kResidentRowBlock;
  const std::size_t blocks = (num_rows + row_block - 1) / row_block;
  const KernelBackend& kb = active_backend();
  util::parallel_for(
      blocks,
      [&](std::size_t block) {
        const std::size_t r0 = block * row_block;
        const std::size_t rn = std::min(num_rows, r0 + row_block);
        const double* x = rows_flat.data() + r0 * n;
        // rff_project_map writes each real component once — projection and
        // trig map fused, in the worker that owns the rows — so the raw
        // arena planes need no zero-fill and the first touch runs in
        // parallel.
        if (w == nullptr) {
          // F×16 weight tiles live in a worker-local scratch (L1/L2-resident;
          // e.g. 100 KB at F = 784) that the kernel consumes in place — the
          // projection matrix never exists in memory all at once. Each tile
          // is projected into every row of the block. The scratch
          // persists per thread so steady-state batches (the serving
          // runtime's admission path) never touch the allocator.
          thread_local std::vector<double> scratch;
          scratch.resize(n * kRematTile);
          for (std::size_t j0 = 0; j0 < d; j0 += kRematTile) {
            const std::size_t tile = std::min(kRematTile, d - j0);
            kb.rff_rematerialize(proj_seed_, stddev_, j0, tile, n, scratch.data(),
                                 tile);
            kb.rff_project_map(x, n, scratch.data(), tile, phase_.data() + j0,
                               sin_phase_.data() + j0, out.real + r0 * d + j0, d,
                               rn - r0, n, tile);
          }
        } else {
          kb.rff_project_map(x, n, w, d, phase_.data(), sin_phase_.data(),
                             out.real + r0 * d, d, rn - r0, n, d);
        }
        for (std::size_t r = r0; r < rn; ++r) {
          finalize_encoded_row(out, r);
        }
      },
      threads);
}

// ---------------------------------------------------------------------------
// IdLevelEncoder
// ---------------------------------------------------------------------------

IdLevelEncoder::IdLevelEncoder(EncoderConfig config) : Encoder(config) {
  REGHD_CHECK(config_.levels >= 2, "ID-level encoding requires at least two levels");
  REGHD_CHECK(config_.level_min < config_.level_max,
              "level range must be non-empty: [" << config_.level_min << ", "
                                                 << config_.level_max << ")");
  util::Rng rng(config_.seed);
  util::Rng id_rng = rng.split();
  util::Rng level_rng = rng.split();

  feature_ids_.reserve(config_.input_dim);
  for (std::size_t k = 0; k < config_.input_dim; ++k) {
    feature_ids_.push_back(random_binary(config_.dim, id_rng));
  }

  // Progressive level vectors: L_0 is random; L_{i+1} flips dim/(levels−1)
  // fresh positions of L_i, so Hamming(L_a, L_b) grows linearly with |a−b|.
  level_hvs_.reserve(config_.levels);
  level_hvs_.push_back(random_binary(config_.dim, level_rng));
  const std::size_t flips_per_step =
      std::max<std::size_t>(1, config_.dim / (config_.levels - 1));
  std::vector<std::size_t> positions(config_.dim);
  for (std::size_t i = 0; i < config_.dim; ++i) {
    positions[i] = i;
  }
  level_rng.shuffle(positions);
  std::size_t cursor = 0;
  for (std::size_t lvl = 1; lvl < config_.levels; ++lvl) {
    BinaryHV next = level_hvs_.back();
    for (std::size_t f = 0; f < flips_per_step && cursor < positions.size(); ++f, ++cursor) {
      next.set_bit(positions[cursor], !next.bit(positions[cursor]));
    }
    level_hvs_.push_back(std::move(next));
  }
}

std::size_t IdLevelEncoder::level_index(double value) const noexcept {
  const double clamped = std::clamp(value, config_.level_min, config_.level_max);
  const double t = (clamped - config_.level_min) / (config_.level_max - config_.level_min);
  const auto idx = static_cast<std::size_t>(t * static_cast<double>(config_.levels - 1) + 0.5);
  return std::min(idx, config_.levels - 1);
}

void IdLevelEncoder::encode_real_into(std::span<const double> features,
                                      double* out) const {
  BinaryHV bound(config_.dim);  // scratch reused across features — no
                                // per-feature allocation
  const KernelBackend& kb = active_backend();
  for (std::size_t k = 0; k < config_.input_dim; ++k) {
    xor_bind_into(bound, feature_ids_[k], level_hvs_[level_index(features[k])]);
    kb.add_scaled_binary(out, bound.words().data(), 1.0, config_.dim);
  }
}

// ---------------------------------------------------------------------------
// TemporalEncoder
// ---------------------------------------------------------------------------

TemporalEncoder::TemporalEncoder(EncoderConfig config) : Encoder(config) {
  REGHD_CHECK(config_.levels >= 2, "temporal encoding requires at least two levels");
  REGHD_CHECK(config_.level_min < config_.level_max,
              "level range must be non-empty: [" << config_.level_min << ", "
                                                 << config_.level_max << ")");
  util::Rng rng(config_.seed);
  util::Rng level_rng = rng.split();

  // Progressive level ladder (same construction as IdLevelEncoder): nearby
  // levels share most bits.
  level_hvs_.reserve(config_.levels);
  level_hvs_.push_back(random_binary(config_.dim, level_rng));
  const std::size_t flips_per_step =
      std::max<std::size_t>(1, config_.dim / (config_.levels - 1));
  std::vector<std::size_t> positions(config_.dim);
  for (std::size_t i = 0; i < config_.dim; ++i) {
    positions[i] = i;
  }
  level_rng.shuffle(positions);
  std::size_t cursor = 0;
  for (std::size_t lvl = 1; lvl < config_.levels; ++lvl) {
    BinaryHV next = level_hvs_.back();
    for (std::size_t f = 0; f < flips_per_step && cursor < positions.size(); ++f, ++cursor) {
      next.set_bit(positions[cursor], !next.bit(positions[cursor]));
    }
    level_hvs_.push_back(std::move(next));
  }
}

std::size_t TemporalEncoder::level_index(double value) const noexcept {
  const double clamped = std::clamp(value, config_.level_min, config_.level_max);
  const double t = (clamped - config_.level_min) / (config_.level_max - config_.level_min);
  const auto idx = static_cast<std::size_t>(t * static_cast<double>(config_.levels - 1) + 0.5);
  return std::min(idx, config_.levels - 1);
}

void TemporalEncoder::encode_real_into(std::span<const double> features,
                                       double* out) const {
  BinaryHV rotated(config_.dim);  // scratch reused across window positions
  const KernelBackend& kb = active_backend();
  for (std::size_t t = 0; t < features.size(); ++t) {
    // ρᵗ binds the element to its window position.
    permute_into(rotated, level_hvs_[level_index(features[t])], t);
    kb.add_scaled_binary(out, rotated.words().data(), 1.0, config_.dim);
  }
}

std::unique_ptr<Encoder> make_encoder(const EncoderConfig& config) {
  switch (config.kind) {
    case EncoderKind::kNonlinearFeature:
      return std::make_unique<NonlinearFeatureEncoder>(config);
    case EncoderKind::kRffProjection:
      return std::make_unique<RffProjectionEncoder>(config);
    case EncoderKind::kIdLevel:
      return std::make_unique<IdLevelEncoder>(config);
    case EncoderKind::kTemporal:
      return std::make_unique<TemporalEncoder>(config);
  }
  throw std::invalid_argument("unknown EncoderKind value " +
                              std::to_string(static_cast<int>(config.kind)));
}

}  // namespace reghd::hdc
