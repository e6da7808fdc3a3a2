// Tests for the similarity-preserving encoders (paper §2.2), including the
// exact equivalence of the factored Eq. 1 fast path with the literal
// formula, and the similarity-preservation property across all encoders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hdc/encoding.hpp"
#include "hdc/ops.hpp"
#include "util/random.hpp"

namespace reghd::hdc {
namespace {

EncoderConfig base_config(EncoderKind kind, std::size_t input_dim = 6,
                          std::size_t dim = 1024) {
  EncoderConfig cfg;
  cfg.kind = kind;
  cfg.input_dim = input_dim;
  cfg.dim = dim;
  cfg.seed = 99;
  return cfg;
}

/// The smallest hyperspace dimension whose F×D projection exceeds the
/// per-thread rematerialization budget, plus a ragged 100 — the shape that
/// keeps tile regeneration and rff_remat_dot covered end to end (every
/// smaller remat shape encodes from the cached copy).
std::size_t over_budget_dim(std::size_t input_dim) {
  return RffProjectionEncoder::kRematCacheBytes / (sizeof(double) * input_dim) + 100;
}

std::vector<double> random_features(std::size_t n, util::Rng& rng) {
  std::vector<double> f(n);
  for (double& v : f) {
    v = rng.normal();
  }
  return f;
}

TEST(EncoderKindTest, NameRoundTrip) {
  for (const auto kind : {EncoderKind::kNonlinearFeature, EncoderKind::kRffProjection,
                          EncoderKind::kIdLevel}) {
    EXPECT_EQ(encoder_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW((void)encoder_kind_from_string("bogus"), std::invalid_argument);
}

TEST(NonlinearEncoderTest, FactoredFormMatchesLiteralEquationOne) {
  const NonlinearFeatureEncoder enc(base_config(EncoderKind::kNonlinearFeature, 5, 512));
  util::Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<double> f = random_features(5, rng);
    const RealHV fast = enc.encode_real(f);
    const RealHV reference = enc.encode_reference(f);
    ASSERT_EQ(fast.dim(), reference.dim());
    for (std::size_t j = 0; j < fast.dim(); ++j) {
      EXPECT_NEAR(fast[j], reference[j], 1e-9);
    }
  }
}

TEST(NonlinearEncoderTest, ZeroInputGivesDeterministicBias) {
  // f = 0 ⇒ every term cos(b_j)·sin(0) = 0 ⇒ H = 0.
  const NonlinearFeatureEncoder enc(base_config(EncoderKind::kNonlinearFeature, 4, 256));
  const RealHV h = enc.encode_real(std::vector<double>(4, 0.0));
  for (std::size_t j = 0; j < h.dim(); ++j) {
    EXPECT_NEAR(h[j], 0.0, 1e-12);
  }
}

class EncoderSuite : public ::testing::TestWithParam<EncoderKind> {
 protected:
  std::unique_ptr<Encoder> make(std::size_t input_dim = 6, std::size_t dim = 2048) const {
    return make_encoder(base_config(GetParam(), input_dim, dim));
  }
};

TEST_P(EncoderSuite, DeterministicForFixedConfig) {
  const auto enc1 = make();
  const auto enc2 = make();
  util::Rng rng(3);
  const std::vector<double> f = random_features(6, rng);
  EXPECT_EQ(enc1->encode_real(f).values().size(), 2048u);
  const RealHV a = enc1->encode_real(f);
  const RealHV b = enc2->encode_real(f);
  for (std::size_t j = 0; j < a.dim(); ++j) {
    EXPECT_DOUBLE_EQ(a[j], b[j]);
  }
}

TEST_P(EncoderSuite, DifferentSeedsProduceDifferentMaps) {
  auto cfg = base_config(GetParam());
  const auto enc1 = make_encoder(cfg);
  cfg.seed += 1;
  const auto enc2 = make_encoder(cfg);
  util::Rng rng(5);
  const std::vector<double> f = random_features(6, rng);
  EXPECT_NE(enc1->encode_real(f), enc2->encode_real(f));
}

TEST_P(EncoderSuite, RejectsWrongFeatureCount) {
  const auto enc = make();
  EXPECT_THROW((void)enc->encode_real(std::vector<double>(5, 0.0)), std::invalid_argument);
  EXPECT_THROW((void)enc->encode(std::vector<double>(7, 0.0)), std::invalid_argument);
}

TEST_P(EncoderSuite, EncodedSampleRepresentationsAreCoupled) {
  const auto enc = make();
  util::Rng rng(7);
  const EncodedSample s = enc->encode(random_features(6, rng));
  for (std::size_t j = 0; j < s.real.dim(); ++j) {
    EXPECT_EQ(s.binary.bit(j), !(s.real[j] < 0.0)) << "component " << j;
  }
  double norm2 = 0.0;
  for (const double v : s.real.values()) {
    norm2 += v * v;
  }
  EXPECT_NEAR(s.real_norm2, norm2, 1e-9);
  EXPECT_NEAR(s.real_norm, std::sqrt(norm2), 1e-9);
}

// The commonsense principle of §2.2: closer inputs map to more similar
// hypervectors; far-apart inputs map toward orthogonality.
TEST_P(EncoderSuite, SimilarityDecreasesWithInputDistance) {
  const auto enc = make(6, 4096);
  util::Rng rng(11);
  double near_sum = 0.0;
  double mid_sum = 0.0;
  double far_sum = 0.0;
  constexpr int kTrials = 12;
  for (int t = 0; t < kTrials; ++t) {
    const std::vector<double> x = random_features(6, rng);
    auto perturb = [&](double eps) {
      std::vector<double> y = x;
      for (double& v : y) {
        v += eps * rng.normal();
      }
      return enc->encode(y);
    };
    const EncodedSample ex = enc->encode(x);
    near_sum += cosine(ex.real, perturb(0.05).real);
    mid_sum += cosine(ex.real, perturb(0.5).real);
    far_sum += cosine(ex.real, perturb(5.0).real);
  }
  EXPECT_GT(near_sum / kTrials, mid_sum / kTrials);
  EXPECT_GT(mid_sum / kTrials, far_sum / kTrials);
  EXPECT_GT(near_sum / kTrials, 0.8);  // tiny perturbation ⇒ nearly identical
}

TEST_P(EncoderSuite, BinaryRepresentationPreservesSimilarityToo) {
  const auto enc = make(6, 4096);
  util::Rng rng(13);
  const std::vector<double> x = random_features(6, rng);
  std::vector<double> near = x;
  near[0] += 0.05;
  std::vector<double> far = x;
  for (double& v : far) {
    v += 3.0 * rng.normal();
  }
  const EncodedSample ex = enc->encode(x);
  const double sim_near = hamming_similarity(ex.binary, enc->encode(near).binary);
  const double sim_far = hamming_similarity(ex.binary, enc->encode(far).binary);
  EXPECT_GT(sim_near, sim_far);
}

INSTANTIATE_TEST_SUITE_P(Kinds, EncoderSuite,
                         ::testing::Values(EncoderKind::kNonlinearFeature,
                                           EncoderKind::kRffProjection,
                                           EncoderKind::kIdLevel,
                                           EncoderKind::kTemporal),
                         [](const auto& info) { return to_string(info.param); });

TEST(IdLevelEncoderTest, LevelIndexQuantizesAndClamps) {
  auto cfg = base_config(EncoderKind::kIdLevel, 3, 256);
  cfg.levels = 11;
  cfg.level_min = -1.0;
  cfg.level_max = 1.0;
  const IdLevelEncoder enc(cfg);
  EXPECT_EQ(enc.level_index(-1.0), 0u);
  EXPECT_EQ(enc.level_index(0.0), 5u);
  EXPECT_EQ(enc.level_index(1.0), 10u);
  EXPECT_EQ(enc.level_index(-100.0), 0u);   // clamped
  EXPECT_EQ(enc.level_index(100.0), 10u);   // clamped
}

TEST(IdLevelEncoderTest, NearbyLevelsShareMoreBitsThanDistantOnes) {
  auto cfg = base_config(EncoderKind::kIdLevel, 1, 2048);
  cfg.levels = 32;
  cfg.level_min = -3.0;
  cfg.level_max = 3.0;
  const IdLevelEncoder enc(cfg);
  const EncodedSample lo = enc.encode(std::vector<double>{-2.9});
  const EncodedSample lo2 = enc.encode(std::vector<double>{-2.5});
  const EncodedSample hi = enc.encode(std::vector<double>{2.9});
  EXPECT_GT(cosine(lo.real, lo2.real), cosine(lo.real, hi.real));
}

TEST(EncoderConfigTest, FactoryValidatesConfiguration) {
  EncoderConfig cfg;  // input_dim = 0
  EXPECT_THROW((void)make_encoder(cfg), std::invalid_argument);
  cfg.input_dim = 4;
  cfg.dim = 0;
  EXPECT_THROW((void)make_encoder(cfg), std::invalid_argument);
  cfg = base_config(EncoderKind::kIdLevel);
  cfg.levels = 1;
  EXPECT_THROW((void)make_encoder(cfg), std::invalid_argument);
  cfg = base_config(EncoderKind::kIdLevel);
  cfg.level_min = 2.0;
  cfg.level_max = 1.0;
  EXPECT_THROW((void)make_encoder(cfg), std::invalid_argument);
  cfg = base_config(EncoderKind::kRffProjection);
  cfg.projection_stddev = -1.0;
  EXPECT_THROW((void)make_encoder(cfg), std::invalid_argument);
}

TEST(RffEncoderTest, ExplicitBandwidthOverridesAuto) {
  auto cfg = base_config(EncoderKind::kRffProjection, 4, 1024);
  cfg.projection_stddev = 0.0;  // auto
  const auto auto_enc = make_encoder(cfg);
  cfg.projection_stddev = 2.0;
  const auto sharp_enc = make_encoder(cfg);
  util::Rng rng(17);
  const std::vector<double> x = random_features(4, rng);
  std::vector<double> y = x;
  for (double& v : y) {
    v += 0.3 * rng.normal();
  }
  // The sharper kernel must separate the pair more.
  const double sim_auto =
      cosine(auto_enc->encode(x).real, auto_enc->encode(y).real);
  const double sim_sharp =
      cosine(sharp_enc->encode(x).real, sharp_enc->encode(y).real);
  EXPECT_GT(sim_auto, sim_sharp);
}

TEST(RffEncoderTest, StorageModeNameRoundTrip) {
  for (const auto storage :
       {ProjectionStorage::kResident, ProjectionStorage::kRematerialized}) {
    EXPECT_EQ(projection_storage_from_string(to_string(storage)), storage);
  }
  EXPECT_THROW((void)projection_storage_from_string("bogus"), std::invalid_argument);
}

TEST(RffEncoderTest, RematerializedEncodingIsBitIdenticalToResident) {
  // The tentpole contract: rematerialized storage regenerates the projection
  // rows from the seed, yet every encoded component must equal the
  // resident-matrix path bit for bit, across odd/even feature counts and
  // non-word-multiple dims. The last shape is over the per-thread cache
  // budget, so it regenerates tiles inside the encode loop.
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  for (const std::size_t input_dim : {1u, 5u, 10u}) {
    for (const std::size_t dim : {65u, 1000u, 2048u}) {
      shapes.emplace_back(input_dim, dim);
    }
  }
  shapes.emplace_back(32, over_budget_dim(32));
  for (const auto& [input_dim, dim] : shapes) {
    auto cfg = base_config(EncoderKind::kRffProjection, input_dim, dim);
    const auto resident = make_encoder(cfg);
    cfg.projection_storage = ProjectionStorage::kRematerialized;
    const auto remat = make_encoder(cfg);

    util::Rng rng(0xAB + dim);
    for (int trial = 0; trial < 3; ++trial) {
      const std::vector<double> f = random_features(input_dim, rng);
      const RealHV a = resident->encode_real(f);
      const RealHV b = remat->encode_real(f);
      ASSERT_EQ(a.dim(), b.dim());
      for (std::size_t j = 0; j < dim; ++j) {
        ASSERT_EQ(a[j], b[j]) << "dim " << dim << " j " << j;
      }
    }
  }
}

TEST(RffEncoderTest, RematerializedBatchEncodeIsBitIdenticalAcrossThreads) {
  // Within the cache budget the calling thread's regenerated projection is
  // handed to every worker; over it (the second dim) the batch GEMM path
  // tiles the hyperspace axis and regenerates each tile once per worker's
  // row block (at least 64 rows, else ⌈rows / threads⌉). Neither the
  // sharing, the tiling nor the worker count may perturb a single bit
  // relative to the resident path. Row counts straddle the 64-row minimum
  // and the odd row the GEMM's row pairs leave over.
  constexpr std::size_t kInput = 7;
  for (const std::size_t dim : {std::size_t{1000}, over_budget_dim(kInput)}) {
    const std::size_t words = (dim + 63) / 64;
    auto cfg = base_config(EncoderKind::kRffProjection, kInput, dim);
    const auto resident = make_encoder(cfg);
    cfg.projection_storage = ProjectionStorage::kRematerialized;
    const auto remat = make_encoder(cfg);

    for (const std::size_t num_rows : {1u, 33u, 64u, 65u, 130u}) {
      util::Rng rng(0xBA7C + num_rows);
      std::vector<double> rows(num_rows * kInput);
      for (double& v : rows) {
        v = rng.normal();
      }
      std::vector<double> want_real(num_rows * dim);
      std::vector<std::uint64_t> want_bits(num_rows * words);
      std::vector<double> want_norm(num_rows);
      std::vector<double> want_norm2(num_rows);
      resident->encode_batch_into(
          rows, num_rows,
          {want_real.data(), want_bits.data(), want_norm.data(), want_norm2.data(), dim,
           words},
          1);
      for (const std::size_t threads : {1u, 2u, 4u}) {
        // The arena contract: the real plane is zero-initialized (encoders
        // accumulate into it); the bit plane may hold garbage (fully
        // overwritten).
        std::vector<double> got_real(num_rows * dim, 0.0);
        std::vector<std::uint64_t> got_bits(num_rows * words, ~0ULL);
        std::vector<double> got_norm(num_rows);
        std::vector<double> got_norm2(num_rows);
        remat->encode_batch_into(
            rows, num_rows,
            {got_real.data(), got_bits.data(), got_norm.data(), got_norm2.data(), dim,
             words},
            threads);
        const std::string where = "dim " + std::to_string(dim) + " rows " +
                                  std::to_string(num_rows) + " threads " +
                                  std::to_string(threads);
        EXPECT_EQ(got_real, want_real) << where;
        EXPECT_EQ(got_bits, want_bits) << where;
        EXPECT_EQ(got_norm, want_norm) << where;
        EXPECT_EQ(got_norm2, want_norm2) << where;
      }
    }
  }
}

TEST(RffEncoderTest, ServingShapeBatchMatchesResidentAndPerRowBitExact) {
  // The serving shape (F = 32) through the fused projection + trig map: a
  // rematerialized batch, a resident batch and the per-row encode must agree
  // in every plane. D = 1000 leaves an 8-column tail tile; row counts 1, 127,
  // 128, 129 and 131 leave every remainder of the kernel's 8/4/2/1-row
  // register blocks; 4 threads split the rows across workers. One row
  // carries a huge feature, so most (not all) of its lanes take the trig
  // map's std::sin fallback in the middle of a tile. The arena planes start
  // as garbage: the encoder must overwrite every one. The last dim is over
  // the per-thread cache budget, so its rematerialized batch and per-row
  // encodes regenerate 16-row tiles, while the first two encode from the
  // cached copy.
  constexpr std::size_t kInput = 32;
  for (const std::size_t dim : {std::size_t{2048}, std::size_t{1000},
                                over_budget_dim(kInput)}) {
    const std::size_t words = (dim + 63) / 64;
    auto cfg = base_config(EncoderKind::kRffProjection, kInput, dim);
    const auto resident = make_encoder(cfg);
    cfg.projection_storage = ProjectionStorage::kRematerialized;
    const auto remat = make_encoder(cfg);
    for (const std::size_t num_rows : {1u, 127u, 128u, 129u, 131u}) {
      util::Rng rng(0x5E7E + num_rows + dim);
      std::vector<double> rows(num_rows * kInput);
      for (double& v : rows) {
        v = rng.normal();
      }
      rows[(num_rows / 2) * kInput + 5] = 1.0e10;

      struct Planes {
        std::vector<double> real, norm, norm2;
        std::vector<std::uint64_t> bits;
      };
      const auto encode = [&](const Encoder& enc, std::size_t threads) {
        Planes p{std::vector<double>(num_rows * dim, -7.0), std::vector<double>(num_rows),
                 std::vector<double>(num_rows),
                 std::vector<std::uint64_t>(num_rows * words, ~0ULL)};
        enc.encode_batch_into(rows, num_rows,
                              {p.real.data(), p.bits.data(), p.norm.data(),
                               p.norm2.data(), dim, words},
                              threads);
        return p;
      };
      const Planes want = encode(*resident, 1);
      for (std::size_t r = 0; r < num_rows; ++r) {
        const EncodedSample s =
            remat->encode(std::span<const double>(rows).subspan(r * kInput, kInput));
        const std::string where = "dim " + std::to_string(dim) + " row " + std::to_string(r);
        ASSERT_TRUE(std::equal(s.real.values().begin(), s.real.values().end(),
                               want.real.begin() + static_cast<std::ptrdiff_t>(r * dim)))
            << where;
        ASSERT_TRUE(std::equal(s.binary.words().begin(), s.binary.words().end(),
                               want.bits.begin() + static_cast<std::ptrdiff_t>(r * words)))
            << where;
        ASSERT_EQ(s.real_norm2, want.norm2[r]) << where;
        ASSERT_EQ(s.real_norm, want.norm[r]) << where;
      }
      for (const std::size_t threads : {1u, 4u}) {
        const Planes got = encode(*remat, threads);
        const std::string where = "dim " + std::to_string(dim) + " rows " +
                                  std::to_string(num_rows) + " threads " +
                                  std::to_string(threads);
        EXPECT_EQ(got.real, want.real) << where;
        EXPECT_EQ(got.bits, want.bits) << where;
        EXPECT_EQ(got.norm, want.norm) << where;
        EXPECT_EQ(got.norm2, want.norm2) << where;
      }
    }
  }
}

// The per-thread regenerated projection is keyed on (projection seed,
// stddev bits, F, D). Up to "dim", each variant below differs from the one
// before it in exactly one of those, so a key that ignored or rounded any
// of them would hand an encoder another encoder's weights. The transposed
// shape keeps F·D and changes both factors; the explicit-stddev twin of the
// auto bandwidth returns to the base key, and the final repeat is a
// separate encoder object with that same key, reading the same copy.
struct CacheVariant {
  const char* name;
  std::size_t input_dim;
  std::size_t dim;
  std::uint64_t seed;
  double stddev;  ///< 0 = auto bandwidth 1/√F.
};

const std::vector<CacheVariant>& cache_variants() {
  static const std::vector<CacheVariant> variants = {
      {"base", 8, 512, 7, 0.0},
      {"seed", 8, 512, 8, 0.0},
      {"base_after_seed", 8, 512, 7, 0.0},
      {"stddev", 8, 512, 7, 0.5},
      {"stddev_ulp", 8, 512, 7, std::nextafter(0.5, 1.0)},
      {"features", 9, 512, 7, std::nextafter(0.5, 1.0)},
      {"dim", 9, 640, 7, std::nextafter(0.5, 1.0)},
      {"transposed", 18, 320, 7, std::nextafter(0.5, 1.0)},
      {"base_explicit_stddev", 8, 512, 7, 1.0 / std::sqrt(8.0)},
      {"base_repeat", 8, 512, 7, 0.0},
  };
  return variants;
}

/// A rematerialized encoder and its resident twin.
struct EncoderTwin {
  std::unique_ptr<Encoder> remat;
  std::unique_ptr<Encoder> resident;
};

EncoderTwin make_twin(const CacheVariant& v) {
  auto cfg = base_config(EncoderKind::kRffProjection, v.input_dim, v.dim);
  cfg.seed = v.seed;
  cfg.projection_stddev = v.stddev;
  EncoderTwin twin;
  twin.resident = make_encoder(cfg);
  cfg.projection_storage = ProjectionStorage::kRematerialized;
  twin.remat = make_encoder(cfg);
  return twin;
}

enum class EncodePath : std::uint8_t { kRow, kBlocks, kBatch };

std::string to_string(EncodePath path) {
  switch (path) {
    case EncodePath::kRow:
      return "row";
    case EncodePath::kBlocks:
      return "blocks";
    case EncodePath::kBatch:
      return "batch";
  }
  return "?";
}

/// The real components of `num_rows` rows encoded through one path of
/// `enc`: per-row encode_real, encode_real_block in 96-component slices, or
/// a 2-worker encode_batch_into (the pointer the calling thread resolves is
/// read by both workers).
std::vector<double> encode_via(const Encoder& enc, EncodePath path,
                               std::span<const double> rows, std::size_t num_rows) {
  const std::size_t n = enc.input_dim();
  const std::size_t d = enc.dim();
  std::vector<double> out(num_rows * d);
  switch (path) {
    case EncodePath::kRow:
      for (std::size_t r = 0; r < num_rows; ++r) {
        const RealHV h = enc.encode_real(rows.subspan(r * n, n));
        std::copy(h.values().begin(), h.values().end(),
                  out.begin() + static_cast<std::ptrdiff_t>(r * d));
      }
      break;
    case EncodePath::kBlocks:
      for (std::size_t r = 0; r < num_rows; ++r) {
        for (std::size_t j0 = 0; j0 < d; j0 += 96) {
          enc.encode_real_block(rows.subspan(r * n, n), j0, std::min<std::size_t>(96, d - j0),
                                out.data() + r * d + j0);
        }
      }
      break;
    case EncodePath::kBatch: {
      const std::size_t words = (d + 63) / 64;
      std::vector<std::uint64_t> bits(num_rows * words);
      std::vector<double> norm(num_rows);
      std::vector<double> norm2(num_rows);
      enc.encode_batch_into(
          rows, num_rows,
          {out.data(), bits.data(), norm.data(), norm2.data(), d, words},
          2);
      break;
    }
  }
  return out;
}

std::vector<double> random_rows(std::size_t num_rows, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  return random_features(num_rows * n, rng);
}

TEST(RffProjectionCacheTest, InterleavedEncodersMatchTheirResidentTwins) {
  // One thread, every remat call made right after a call through an encoder
  // with another key (paths outer, variants inner, two rounds so the first
  // variant follows the last): each must still equal its resident twin.
  constexpr std::size_t kRows = 5;
  std::vector<EncoderTwin> twins;
  for (const CacheVariant& v : cache_variants()) {
    twins.push_back(make_twin(v));
  }
  for (int round = 0; round < 2; ++round) {
    for (const EncodePath path : {EncodePath::kRow, EncodePath::kBlocks, EncodePath::kBatch}) {
      for (std::size_t i = 0; i < twins.size(); ++i) {
        const CacheVariant& v = cache_variants()[i];
        const std::vector<double> rows = random_rows(kRows, v.input_dim, 0xCAC4E + i);
        EXPECT_EQ(encode_via(*twins[i].remat, path, rows, kRows),
                  encode_via(*twins[i].resident, path, rows, kRows))
            << v.name << " path " << to_string(path) << " round " << round;
      }
    }
  }
}

TEST(RffProjectionCacheTest, ConcurrentThreadsThroughDifferentEncodersMatchResident) {
  // Two threads encode at once, each alternating between two encoders of
  // its own, so both refill their copies concurrently while the batch path
  // hands each thread's copy to pool workers. No thread may see another's
  // weights.
  constexpr std::size_t kRows = 4;
  constexpr int kIterations = 12;
  const std::vector<std::vector<std::size_t>> owned = {{0, 4}, {1, 6}};
  std::vector<EncoderTwin> twins;
  std::vector<std::vector<double>> rows;
  std::vector<std::vector<double>> want;
  for (std::size_t i = 0; i < cache_variants().size(); ++i) {
    const CacheVariant& v = cache_variants()[i];
    twins.push_back(make_twin(v));
    rows.push_back(random_rows(kRows, v.input_dim, 0x7C4E + i));
    want.push_back(encode_via(*twins[i].resident, EncodePath::kRow, rows[i], kRows));
  }
  std::vector<int> mismatches(owned.size(), 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < owned.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIterations; ++it) {
        for (const EncodePath path :
             {EncodePath::kRow, EncodePath::kBlocks, EncodePath::kBatch}) {
          for (const std::size_t i : owned[t]) {
            if (encode_via(*twins[i].remat, path, rows[i], kRows) != want[i]) {
              ++mismatches[t];
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (std::size_t t = 0; t < owned.size(); ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace reghd::hdc
