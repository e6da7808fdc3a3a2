// Similarity-preserving encoders: the mapping from an n-dimensional feature
// vector into D-dimensional hyperspace (paper §2.2).
//
// Three encoders are provided:
//
//  * NonlinearFeatureEncoder — the paper's Eq. 1, literally:
//        H_j = Σ_k cos(f_k·B_{k,j} + b_j) · sin(f_k·B_{k,j})
//    with random bipolar base hypervectors B_k (packed BinaryHVs, bit set ⇔
//    +1) and a random phase vector b. Because B_{k,j} = ±1, the sum factors
//    exactly as
//        H_j = cos(b_j) · Σ_k B_{k,j}·(sin 2f_k)/2  −  sin(b_j) · Σ_k sin²f_k
//    which turns the O(n·D) trigonometric evaluation into 2n trig calls, one
//    ±1 projection (n sign-flipped adds straight off the packed bits,
//    add_scaled_binary), and one fused axpy. encode_reference() keeps the
//    direct form; the test suite pins their equality to float tolerance.
//
//  * RffProjectionEncoder — the random-Fourier-feature variant used across
//    the HD-learning literature: H_j = cos(w_j·F + b_j)·sin(w_j·F) with
//    Gaussian projection rows w_j. Richer than Eq. 1 (full-rank random
//    projection rather than a projection of a fixed 1-D transform); this is
//    the library default for the quality experiments.
//
//  * IdLevelEncoder — the classic ID–level record encoding (feature
//    identities bound to quantized feature levels, bundled by accumulation),
//    provided for the Baseline-HD comparator and as a categorical-friendly
//    alternative.
//
// All encoders are deterministic functions of (config, seed). encode()
// returns the two representations RegHD consumes: the real-valued encoder
// output ("integer query" of §3.2) and its sign vector S ∈ {−1,+1}^D, kept
// only in packed form S^b (one bit per component, bit set ⇔ +1).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hdc/hypervector.hpp"

namespace reghd::hdc {

/// One encoded data point in both representations.
struct EncodedSample {
  RealHV real;      ///< Pre-binarization encoder output.
  BinaryHV binary;  ///< S^b — S = sign(real) ∈ {−1,+1}^D, packed.
  double real_norm = 0.0;   ///< ‖real‖, cached for cosine similarity.
  double real_norm2 = 0.0;  ///< ‖real‖², cached for incremental norm updates.
};

/// Non-owning view of one encoded data point, with the same member names as
/// EncodedSample. It can view either an owning EncodedSample (implicit
/// conversion) or one row of the SoA arena in core/encoded, so train_step /
/// predict / checkpoint code is written once against this type.
struct EncodedSampleView {
  RealHVView real;
  BinaryHVView binary;
  double real_norm = 0.0;
  double real_norm2 = 0.0;

  EncodedSampleView() = default;
  EncodedSampleView(RealHVView r, BinaryHVView b, double norm, double norm2)
      : real(r), binary(b), real_norm(norm), real_norm2(norm2) {}
  EncodedSampleView(const EncodedSample& s)  // NOLINT(google-explicit-constructor)
      : real(s.real), binary(s.binary), real_norm(s.real_norm), real_norm2(s.real_norm2) {}

  /// Deep-copies the viewed row into an owning sample (fault-injection tests
  /// and other callers that mutate a sample start from this).
  [[nodiscard]] EncodedSample materialize() const {
    return {real.to_owning(), binary.to_owning(), real_norm, real_norm2};
  }
};

/// Destination planes for arena batch encoding (all non-owning; the arena in
/// core/encoded owns the storage). Row r of the batch occupies real
/// components [r·dim, (r+1)·dim), packed words [r·words_per_row,
/// (r+1)·words_per_row), and norm/norm² slot r. Every plane may hold
/// uninitialized or stale bytes on entry: encode_batch_into zeroes each real
/// row inside the worker that encodes it, right before accumulating into it,
/// and then writes every packed word (padding bits included) and both norm
/// slots of the row.
struct EncodedArenaRef {
  double* real = nullptr;
  std::uint64_t* binary = nullptr;
  double* norm = nullptr;
  double* norm2 = nullptr;
  std::size_t dim = 0;
  std::size_t words_per_row = 0;
};

/// Which encoder implementation to construct.
enum class EncoderKind : std::uint8_t {
  kNonlinearFeature = 0,  ///< Paper Eq. 1.
  kRffProjection = 1,     ///< Gaussian random-Fourier-feature encoder.
  kIdLevel = 2,           ///< Classic ID–level record encoding.
  kTemporal = 3,          ///< Permutation-bound sequence (sliding-window) encoding.
};

/// Returns a stable lowercase name ("nonlinear", "rff", "idlevel",
/// "temporal").
[[nodiscard]] std::string to_string(EncoderKind kind);

/// Parses the names accepted by to_string(); throws on anything else.
[[nodiscard]] EncoderKind encoder_kind_from_string(const std::string& name);

/// Where the RFF projection weights live. Both modes derive every weight
/// from the same counter-based kernel (KernelBackend::rff_rematerialize), so
/// the encoded output is bit-identical either way — the choice only trades
/// resident bytes against regeneration compute.
enum class ProjectionStorage : std::uint8_t {
  kResident = 0,        ///< The encoder materializes the F×D matrix at any
                        ///< size: O(F·D) bytes, streamed by every encode.
  kRematerialized = 1,  ///< The encoder materializes the matrix only while
                        ///< F·D·8 bytes fit
                        ///< RffProjectionEncoder::kRematCacheBytes (there
                        ///< shared_encoder() hands out the resident
                        ///< encoder); above that budget it stores none and
                        ///< regenerates 16-row tiles into an O(F·tile)
                        ///< L1/L2 scratch on every encode.
};

/// Returns a stable lowercase name ("resident", "rematerialized").
[[nodiscard]] std::string to_string(ProjectionStorage storage);

/// Parses the names accepted by to_string(); throws on anything else.
[[nodiscard]] ProjectionStorage projection_storage_from_string(const std::string& name);

/// Encoder construction parameters. A config plus nothing else fully
/// determines the encoder (used for model serialization).
struct EncoderConfig {
  EncoderKind kind = EncoderKind::kRffProjection;
  std::size_t input_dim = 0;   ///< n — feature count; must be set.
  std::size_t dim = 4096;      ///< D — hyperspace dimensionality.
  std::uint64_t seed = 0x9D0C0FFEEULL;

  // RffProjection only: stddev of the Gaussian projection rows. Acts as an
  // inverse kernel bandwidth. 0 (the default) auto-scales to 1/√input_dim,
  // which keeps the projected phase z = w·F at unit variance for
  // standardized features regardless of the feature count — larger values
  // sharpen the kernel toward memorization, smaller ones flatten it toward
  // a linear fit.
  double projection_stddev = 0.0;

  // RffProjection only: resident weight matrix vs counter-based
  // regeneration. A runtime/footprint knob, not part of the model identity —
  // the encoded output is bit-identical in both modes, so (like thread
  // counts) it is not serialized with the encoder config. A rematerialized
  // projection within RffProjectionEncoder::kRematCacheBytes is still
  // stored, once, in the encoder (shared_encoder() gives every learner of
  // one config, of either storage, that one copy); a larger one is
  // regenerated tile by tile on every encode.
  ProjectionStorage projection_storage = ProjectionStorage::kResident;

  // IdLevel only: number of quantization levels and the feature range the
  // levels span (features are clamped into [level_min, level_max]).
  std::size_t levels = 64;
  double level_min = -3.0;
  double level_max = 3.0;
};

/// Abstract encoder interface.
class Encoder {
 public:
  virtual ~Encoder() = default;

  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;

  /// Hyperspace dimensionality D.
  [[nodiscard]] std::size_t dim() const noexcept { return config_.dim; }

  /// Expected feature count n.
  [[nodiscard]] std::size_t input_dim() const noexcept { return config_.input_dim; }

  /// The construction parameters (sufficient to reconstruct this encoder).
  [[nodiscard]] const EncoderConfig& config() const noexcept { return config_; }

  /// Maps features to the real-valued hypervector. Throws if
  /// features.size() != input_dim().
  [[nodiscard]] RealHV encode_real(std::span<const double> features) const;

  /// Maps features to both representations.
  [[nodiscard]] EncodedSample encode(std::span<const double> features) const;

  /// Encodes `num_rows` feature vectors stored contiguously row-major in
  /// `rows_flat` (size num_rows · input_dim), parallelized over rows with up
  /// to `threads` workers (0 = REGHD_THREADS / hardware concurrency).
  /// Deterministic: result row i equals encode(row i) regardless of thread
  /// count.
  [[nodiscard]] std::vector<EncodedSample> encode_batch(
      std::span<const double> rows_flat, std::size_t num_rows,
      std::size_t threads = 0) const;

  /// Encodes `num_rows` rows directly into a SoA arena (see EncodedArenaRef):
  /// zero per-sample allocations, packed sign binarization, and — for encoders with a
  /// batched projection stage (RFF) — a cache-blocked GEMM that preserves the
  /// per-component accumulation order. Row r of the arena is bit-identical to
  /// encode(row r) for any thread count or kernel backend, whatever the
  /// planes held before: overrides must zero each real row themselves before
  /// accumulating into it, in the worker that owns the row.
  virtual void encode_batch_into(std::span<const double> rows_flat,
                                 std::size_t num_rows, const EncodedArenaRef& out,
                                 std::size_t threads = 0) const;

  /// True when this encoder can produce an arbitrary component slice of the
  /// real encoding via encode_real_block() — the contract the fused
  /// single-query predict path (MultiModelRegressor::predict_one) needs to
  /// stream encode → bank-scan through one L1-resident block at a time.
  [[nodiscard]] virtual bool supports_block_encode() const noexcept { return false; }

  /// Writes components [j0, j0 + len) of encode_real(features) into
  /// out[0..len), bit-identical to that slice of the full encoding for any
  /// block split (component j depends only on features and j, never on other
  /// components). Throws std::logic_error unless supports_block_encode().
  virtual void encode_real_block(std::span<const double> features, std::size_t j0,
                                 std::size_t len, double* out) const;

 protected:
  explicit Encoder(EncoderConfig config);

  void check_features(std::span<const double> features) const;

  /// Validates buffer sizes/geometry for encode_batch_into.
  void check_arena(std::span<const double> rows_flat, std::size_t num_rows,
                   const EncodedArenaRef& out) const;

  /// Maps one validated feature row into out[0..dim), which is pre-zeroed.
  /// encode_real() is implemented on top of this, so overrides define both
  /// the per-row and the arena path at once.
  virtual void encode_real_into(std::span<const double> features, double* out) const = 0;

  /// Derives the packed-sign and norm slots of an arena row from its
  /// (already encoded) real row — the sign_pack kernel plus the same
  /// dot_real_real norm encode() computes.
  void finalize_encoded_row(const EncodedArenaRef& out, std::size_t row) const;

  EncoderConfig config_;
};

/// Paper Eq. 1. See file comment for the exact factorization used.
class NonlinearFeatureEncoder final : public Encoder {
 public:
  explicit NonlinearFeatureEncoder(EncoderConfig config);

  /// Direct, unfactored evaluation of Eq. 1 — O(n·D) trig calls. Exposed for
  /// the equivalence test and as executable documentation of the formula.
  [[nodiscard]] RealHV encode_reference(std::span<const double> features) const;

 protected:
  void encode_real_into(std::span<const double> features, double* out) const override;

 private:
  std::vector<BinaryHV> bases_;    ///< B_k, one per feature, packed.
  std::vector<double> phase_;      ///< b_j.
  std::vector<double> cos_phase_;  ///< cos(b_j), precomputed.
  std::vector<double> sin_phase_;  ///< sin(b_j), precomputed.
};

/// Random-Fourier-feature encoder: H_j = cos(w_j·F + b_j)·sin(w_j·F).
class RffProjectionEncoder final : public Encoder {
 public:
  explicit RffProjectionEncoder(EncoderConfig config);

  /// GEMM batch path: projects a whole block of rows per cache tile of the
  /// transposed weights instead of re-streaming all F·D weights per row.
  void encode_batch_into(std::span<const double> rows_flat, std::size_t num_rows,
                         const EncodedArenaRef& out,
                         std::size_t threads = 0) const override;

  /// RFF components are independent per j (projection + trig map), so any
  /// slice can be produced in isolation, through the same projection as
  /// every other path: bit-identical to the same slice of encode_real().
  [[nodiscard]] bool supports_block_encode() const noexcept override { return true; }
  void encode_real_block(std::span<const double> features, std::size_t j0,
                         std::size_t len, double* out) const override;

  /// Largest rematerialized projection, in bytes (F·D·8), that the encoder
  /// still materializes: 1 MiB, half of one core's L2 on the AVX-512
  /// reference host (the F = 32, D = 2048 serving shape is 512 KiB). Larger
  /// projections are regenerated tile by tile on every encode.
  static constexpr std::size_t kRematCacheBytes = std::size_t{1} << 20;

  /// Whether an encoder of `config` stores its projection: always when
  /// resident, and when rematerialized while F·D·8 fits kRematCacheBytes.
  [[nodiscard]] static bool stores_projection(const EncoderConfig& config) noexcept;

 protected:
  void encode_real_into(std::span<const double> features, double* out) const override;

 private:
  /// The one projection loop of every encode path: maps `rows` feature rows
  /// (x, row stride F) onto hyperspace components [j0, j0 + len), writing
  /// row r's components to out[r·ldo, r·ldo + len). Reads the stored
  /// projection's columns, or — when none is stored — regenerates 16-row
  /// weight tiles into a per-thread scratch and projects each in place.
  void project(const double* x, std::size_t rows, std::size_t j0, std::size_t len,
               double* out, std::size_t ldo) const;

  // Projection stored transposed (feature-major): projection_t_[k*d + j] =
  // w_{j,k} — the B operand rff_project_map streams, unit-stride along the
  // hyperspace axis for its SIMD column blocks. Filled by
  // KernelBackend::rff_rematerialize (from proj_seed_), the kernel that also
  // regenerates the tiles when it is empty (rematerialized storage over
  // kRematCacheBytes) — so stored and regenerated weights are bit-identical
  // by construction.
  std::vector<double> projection_t_;
  std::uint64_t proj_seed_ = 0;  ///< Master seed of the weight streams.
  double stddev_ = 0.0;          ///< Resolved projection stddev.
  std::vector<double> phase_;
  std::vector<double> sin_phase_;  ///< sin(b_j), precomputed for the
                                   ///< product-to-sum form of cos(z+b)·sin(z).
};

/// ID–level record encoding: each feature k has a random ID hypervector and
/// each quantization level a level hypervector; level vectors are generated
/// by progressive bit flips so nearby levels stay similar. The record is the
/// accumulation over features of bind(ID_k, Level(f_k)).
class IdLevelEncoder final : public Encoder {
 public:
  explicit IdLevelEncoder(EncoderConfig config);

  /// Index of the quantization level for a (possibly out-of-range) value.
  [[nodiscard]] std::size_t level_index(double value) const noexcept;

 protected:
  void encode_real_into(std::span<const double> features, double* out) const override;

 private:
  std::vector<BinaryHV> feature_ids_;
  std::vector<BinaryHV> level_hvs_;
};

/// Permutation-bound temporal encoding for sliding windows (classic HDC
/// sequence encoding, e.g. language/biosignal work the paper cites in §5):
/// each window element is quantized to a level hypervector and rotated by
/// its position — ρᵗ(L(x_t)) — then all positions are bundled. Rotation
/// makes the encoding order-sensitive (the same values in a different order
/// land elsewhere in hyperspace) while nearby levels stay similar.
/// input_dim is the window length; `levels`/`level_min`/`level_max`
/// quantize the elements.
class TemporalEncoder final : public Encoder {
 public:
  explicit TemporalEncoder(EncoderConfig config);

  /// Index of the quantization level for a (possibly out-of-range) value.
  [[nodiscard]] std::size_t level_index(double value) const noexcept;

 protected:
  void encode_real_into(std::span<const double> features, double* out) const override;

 private:
  std::vector<BinaryHV> level_hvs_;
};

/// Factory: constructs the encoder named by config.kind.
[[nodiscard]] std::unique_ptr<Encoder> make_encoder(const EncoderConfig& config);

/// The process-wide encoder of `config`: every caller asking for an equal
/// config (every field, doubles compared by bits) while one is alive gets
/// that same immutable object, so learners built apart share one copy of
/// its weights. A rematerialized RFF config whose projection is stored
/// anyway (RffProjectionEncoder::stores_projection) counts as resident: it
/// gets the resident encoder, whose config() reports kResident. The
/// registry holds no ownership — an encoder dies with its last holder, and
/// a later call rebuilds an identical one. Thread-safe; the encoder is built
/// outside the registry's lock.
[[nodiscard]] std::shared_ptr<const Encoder> shared_encoder(const EncoderConfig& config);

}  // namespace reghd::hdc
