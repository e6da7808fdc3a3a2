// Trained-model bytes pinned across storage-layout changes.
//
// Each case fits a small model and hashes the write_model_section bytes
// (every cluster and model accumulator component) with CRC32C. The expected
// values were recorded before the accumulators moved into one bank arena;
// any change to how training reads or writes that state — batch phase 1's
// bank scan at every batch size, the per-sample path, the requantize
// cadence, keep-best restore, the shard merge and the refine epoch — shows
// up here as a different CRC.
//
// Dot reductions sum in backend-specific order, so the trained bytes (and
// their CRCs) are keyed by the kernel table that produced them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/encoded.hpp"
#include "core/model_io.hpp"
#include "core/multi_model.hpp"
#include "core/sharded_training.hpp"
#include "data/dataset.hpp"
#include "hdc/encoding.hpp"
#include "hdc/kernel_backend.hpp"
#include "util/crc32c.hpp"
#include "util/random.hpp"

namespace reghd::core {
namespace {

struct Expected {
  std::uint32_t avx512 = 0;
  std::uint32_t avx2 = 0;
  std::uint32_t scalar = 0;
};

/// The expected CRC for the live kernel table; false when the table has no
/// recorded value (e.g. neon), in which case the case is skipped.
bool expected_for_backend(const Expected& e, std::uint32_t& out) {
  const char* name = hdc::active_backend().name;
  if (std::strcmp(name, "avx512") == 0) {
    out = e.avx512;
  } else if (std::strcmp(name, "avx2") == 0) {
    out = e.avx2;
  } else if (std::strcmp(name, "scalar") == 0) {
    out = e.scalar;
  } else {
    return false;
  }
  return true;
}

data::Dataset make_dataset(std::size_t rows, std::size_t features, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> flat(rows * features);
  std::vector<double> targets(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    double sum = 0.0;
    for (std::size_t f = 0; f < features; ++f) {
      const double x = rng.normal(0.0, 1.0);
      flat[i * features + f] = x;
      sum += x * (f % 2 == 0 ? 0.6 : -0.3);
    }
    targets[i] = std::sin(sum) + 0.1 * sum;
  }
  return {"model-bytes", features, std::move(flat), std::move(targets)};
}

struct Data {
  EncodedDataset train;
  EncodedDataset val;
};

const Data& data() {
  static const Data d = [] {
    hdc::EncoderConfig enc;
    enc.input_dim = 5;
    enc.dim = 256;
    const auto encoder = hdc::make_encoder(enc);
    return Data{EncodedDataset::from(*encoder, make_dataset(96, 5, 0xB17E5), 1),
                EncodedDataset::from(*encoder, make_dataset(32, 5, 0x7A1), 1)};
  }();
  return d;
}

RegHDConfig base_config() {
  RegHDConfig cfg;
  cfg.dim = 256;
  cfg.models = 4;
  cfg.max_epochs = 4;
  cfg.requantize_interval = 10;
  return cfg;
}

std::uint32_t model_crc(const MultiModelRegressor& model) {
  std::ostringstream os(std::ios::binary);
  io::write_model_section(os, model);
  return util::crc32c(os.str());
}

struct FitCase {
  ClusterMode mode;
  std::size_t batch_size;
  Expected crc;
};

// Batch sizes straddle 8, the old minimum for batch phase 1's bank path.
const FitCase kFitCases[] = {
    {ClusterMode::kFullPrecision, 0, {2893207017u, 317033934u, 4083708909u}},
    {ClusterMode::kFullPrecision, 1, {2893207017u, 317033934u, 4083708909u}},
    {ClusterMode::kFullPrecision, 7, {622966858u, 1390579351u, 145553470u}},
    {ClusterMode::kFullPrecision, 8, {202079508u, 745923545u, 3481492170u}},
    {ClusterMode::kFullPrecision, 16, {3023949274u, 592748751u, 2615719574u}},
    {ClusterMode::kQuantized, 0, {2934002748u, 2722635634u, 1096616416u}},
    {ClusterMode::kQuantized, 1, {2934002748u, 2722635634u, 1096616416u}},
    {ClusterMode::kQuantized, 7, {2300422594u, 4113392220u, 1626525639u}},
    {ClusterMode::kQuantized, 8, {123998529u, 2353836984u, 3112680092u}},
    {ClusterMode::kQuantized, 16, {2313842304u, 2449411393u, 2115990145u}},
    {ClusterMode::kNaiveBinary, 0, {4246387545u, 1033917081u, 3964839426u}},
    {ClusterMode::kNaiveBinary, 1, {4246387545u, 1033917081u, 3964839426u}},
    {ClusterMode::kNaiveBinary, 7, {2773589662u, 1404323632u, 2129566907u}},
    {ClusterMode::kNaiveBinary, 8, {4269420272u, 393680072u, 669695062u}},
    {ClusterMode::kNaiveBinary, 16, {3685329742u, 4019505386u, 1793438712u}},
};

TEST(ModelBytesTest, FitBytesMatchRecordedCrcs) {
  for (const FitCase& c : kFitCases) {
    std::uint32_t want = 0;
    if (!expected_for_backend(c.crc, want)) {
      GTEST_SKIP() << "no recorded CRCs for backend " << hdc::active_backend().name;
    }
    RegHDConfig cfg = base_config();
    cfg.cluster_mode = c.mode;
    cfg.batch_size = c.batch_size;
    MultiModelRegressor model(cfg);
    (void)model.fit(data().train, data().val);
    EXPECT_EQ(model_crc(model), want)
        << to_string(c.mode) << " batch_size " << c.batch_size;
  }
}

TEST(ModelBytesTest, ShardedRefineBytesMatchRecordedCrc) {
  const Expected crc{426498015u, 2552003643u, 2711570237u};
  std::uint32_t want = 0;
  if (!expected_for_backend(crc, want)) {
    GTEST_SKIP() << "no recorded CRCs for backend " << hdc::active_backend().name;
  }
  ShardedTrainer trainer(base_config());
  ShardedTrainConfig sc;
  sc.shards = 4;
  sc.refine_epochs = 1;
  (void)trainer.fit(data().train, data().val, sc);
  EXPECT_EQ(model_crc(trainer.regressor()), want);
}

TEST(ModelBytesTest, TrainBatchRejectsOutOfRangeRowsBeforeAnyUpdate) {
  // A bad id anywhere in the list — even after valid ones — must throw
  // before phase 1 reads a row or phase 2 touches an accumulator.
  for (const ClusterMode mode : {ClusterMode::kFullPrecision, ClusterMode::kQuantized}) {
    RegHDConfig cfg = base_config();
    cfg.cluster_mode = mode;
    MultiModelRegressor model(cfg);
    (void)model.fit(data().train, data().val);
    const std::uint32_t before = model_crc(model);
    const std::size_t n = data().train.size();
    for (const std::size_t bad : {n, n + 1, std::size_t{1} << 40}) {
      const std::vector<std::size_t> idx = {0, 5, bad};
      std::vector<double> predictions(idx.size(), -1.0);
      EXPECT_THROW(model.train_batch(data().train, idx, predictions), std::invalid_argument)
          << to_string(mode) << " row " << bad;
      EXPECT_EQ(model_crc(model), before) << to_string(mode) << " row " << bad;
      EXPECT_EQ(predictions, std::vector<double>(idx.size(), -1.0));
    }
  }
}

}  // namespace
}  // namespace reghd::core
