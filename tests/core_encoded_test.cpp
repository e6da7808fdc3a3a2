// Tests for the pre-encoded dataset container.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/encoded.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoding.hpp"
#include "util/random.hpp"

namespace reghd::core {
namespace {

std::unique_ptr<hdc::Encoder> make_encoder_for(std::size_t input_dim, std::size_t dim) {
  hdc::EncoderConfig cfg;
  cfg.input_dim = input_dim;
  cfg.dim = dim;
  cfg.seed = 9;
  return hdc::make_encoder(cfg);
}

TEST(EncodedDatasetTest, FromEncodesEveryRowInOrder) {
  const data::Dataset d = data::make_friedman1(50, 3);
  const auto encoder = make_encoder_for(d.num_features(), 512);
  const EncodedDataset enc = EncodedDataset::from(*encoder, d);
  ASSERT_EQ(enc.size(), d.size());
  EXPECT_EQ(enc.dim(), 512u);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_DOUBLE_EQ(enc.target(i), d.target(i));
    // Samples must equal a direct encode of the same row (parallel
    // encoding is bit-identical to serial).
    const hdc::EncodedSample direct = encoder->encode(d.row(i));
    EXPECT_EQ(enc.sample(i).real, direct.real);
    EXPECT_EQ(enc.sample(i).binary, direct.binary);
  }
}

TEST(EncodedDatasetTest, FromRejectsFeatureMismatch) {
  const data::Dataset d = data::make_friedman1(20, 5);  // 10 features
  const auto encoder = make_encoder_for(4, 512);
  EXPECT_THROW((void)EncodedDataset::from(*encoder, d), std::invalid_argument);
}

TEST(EncodedDatasetTest, AddEnforcesConsistentDimensionality) {
  EncodedDataset ds;
  EXPECT_TRUE(ds.empty());
  EXPECT_EQ(ds.dim(), 0u);

  const auto enc512 = make_encoder_for(3, 512);
  const auto enc256 = make_encoder_for(3, 256);
  const std::vector<double> row = {0.1, 0.2, 0.3};
  ds.add(enc512->encode(row), 1.5);
  EXPECT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.dim(), 512u);
  EXPECT_DOUBLE_EQ(ds.target(0), 1.5);
  EXPECT_THROW(ds.add(enc256->encode(row), 2.0), std::invalid_argument);
  EXPECT_EQ(ds.size(), 1u);
}

TEST(EncodedDatasetTest, TargetsSpanMatchesIndividualAccess) {
  const data::Dataset d = data::make_sine_task(30, 7);
  const auto encoder = make_encoder_for(1, 256);
  const EncodedDataset enc = EncodedDataset::from(*encoder, d);
  const auto targets = enc.targets();
  ASSERT_EQ(targets.size(), enc.size());
  for (std::size_t i = 0; i < enc.size(); ++i) {
    EXPECT_DOUBLE_EQ(targets[i], enc.target(i));
  }
}

/// One arena reused across assign_rows calls must come out bit-identical to
/// a fresh from_rows every time, whatever the planes held before: the arena
/// hands the encoder uninitialized planes and the encoder zeroes and fills
/// every row it writes. The arena is first poisoned by a larger batch whose
/// reals are NaN, so any component the encoder failed to zero or write
/// shows up as a NaN, a wrong sign byte or a stale packed word.
TEST(ArenaEncodeTest, ReusedArenaIsFullyOverwritten) {
  constexpr std::size_t kFeatures = 5;
  constexpr std::size_t kDim = 200;  // not a multiple of 64 or of the 16-row remat tile
  struct Kind {
    const char* name;
    hdc::EncoderKind kind;
    hdc::ProjectionStorage storage;
  };
  const Kind kinds[] = {
      {"nonlinear", hdc::EncoderKind::kNonlinearFeature, hdc::ProjectionStorage::kResident},
      {"rff_resident", hdc::EncoderKind::kRffProjection, hdc::ProjectionStorage::kResident},
      {"rff_remat", hdc::EncoderKind::kRffProjection,
       hdc::ProjectionStorage::kRematerialized},
      {"idlevel", hdc::EncoderKind::kIdLevel, hdc::ProjectionStorage::kResident},
      {"temporal", hdc::EncoderKind::kTemporal, hdc::ProjectionStorage::kResident},
  };

  util::Rng rng(21);
  std::vector<double> features(96 * kFeatures);
  for (double& f : features) {
    f = rng.normal();
  }
  hdc::EncoderConfig poison_cfg;
  poison_cfg.kind = hdc::EncoderKind::kRffProjection;
  poison_cfg.input_dim = kFeatures;
  poison_cfg.dim = kDim;
  poison_cfg.seed = 5;
  const auto poison_encoder = hdc::make_encoder(poison_cfg);
  constexpr std::size_t kPoisonRows = 64;
  const std::vector<double> nan_rows(kPoisonRows * kFeatures,
                                     std::numeric_limits<double>::quiet_NaN());

  const auto same_bytes = [](auto a, auto b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
  };

  for (const Kind& k : kinds) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(k.name) + " threads=" + std::to_string(threads));
      hdc::EncoderConfig cfg;
      cfg.kind = k.kind;
      cfg.projection_storage = k.storage;
      cfg.input_dim = kFeatures;
      cfg.dim = kDim;
      cfg.seed = 17;
      const auto encoder = hdc::make_encoder(cfg);

      EncodedDataset arena;
      arena.assign_rows(*poison_encoder, nan_rows, kPoisonRows, threads);
      ASSERT_TRUE(std::isnan(arena.real_plane()[0]));
      // Shrink, regrow within capacity, grow past it, shrink again.
      for (const std::size_t rows : {std::size_t{7}, std::size_t{64}, std::size_t{33},
                                     std::size_t{96}, std::size_t{1}, std::size_t{50}}) {
        SCOPED_TRACE("rows=" + std::to_string(rows));
        const std::span<const double> block(features.data(), rows * kFeatures);
        arena.assign_rows(*encoder, block, rows, threads);
        const EncodedDataset fresh = EncodedDataset::from_rows(*encoder, block, rows, 1);
        ASSERT_EQ(arena.size(), rows);
        EXPECT_TRUE(same_bytes(arena.real_plane(), fresh.real_plane()));
        EXPECT_TRUE(same_bytes(arena.binary_plane(), fresh.binary_plane()));
        EXPECT_TRUE(same_bytes(arena.norms(), fresh.norms()));
        EXPECT_TRUE(same_bytes(arena.norms2(), fresh.norms2()));
        EXPECT_TRUE(same_bytes(arena.targets(), fresh.targets()));
        // And the fresh arena is the per-row encode, so neither one can
        // share a zeroing bug with the other.
        for (std::size_t r = 0; r < rows; r += 16) {
          const hdc::EncodedSample direct =
              encoder->encode(block.subspan(r * kFeatures, kFeatures));
          EXPECT_EQ(arena.sample(r).real, direct.real) << "row " << r;
          EXPECT_EQ(arena.sample(r).binary, direct.binary) << "row " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace reghd::core
