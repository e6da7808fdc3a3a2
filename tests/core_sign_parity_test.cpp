// Pinned outputs of every learner that reads an encoded sample's sign.
//
// The binarized query S ∈ {−1,+1}^D and its packed form S^b are one vector,
// so any reader of the sign — the binary-query Eq. 7 update (train_step,
// train_batch), farthest-point cluster seeding, the fused quantized
// predict, HdClassifier, BaselineHd and HdClustering — must produce the same
// bits however the sign is stored. So must every reader of a random ±1
// vector: the Eq. 1 encoder's base vectors, the random cluster init of
// MultiModelRegressor and HdClustering, and the capacity simulator. Each
// case hashes its predictions and its model bytes with CRC32C at D = 1000 (a
// ragged final word: 1000 = 15·64 + 40) and D = 1024 (whole words), against
// values recorded per kernel table.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/baseline_hd.hpp"
#include "core/encoded.hpp"
#include "core/hd_classifier.hpp"
#include "core/hd_clustering.hpp"
#include "core/model_io.hpp"
#include "core/multi_model.hpp"
#include "data/dataset.hpp"
#include "hdc/capacity.hpp"
#include "hdc/encoding.hpp"
#include "hdc/kernel_backend.hpp"
#include "util/crc32c.hpp"
#include "util/random.hpp"

namespace reghd::core {
namespace {

constexpr std::size_t kFeatures = 5;
constexpr std::size_t kDims[] = {1000, 1024};

/// Recorded CRC per kernel table.
struct Expected {
  std::uint32_t avx512 = 0;
  std::uint32_t avx2 = 0;
  std::uint32_t scalar = 0;
};

/// Predictions and model-bytes CRCs of one case at one D.
struct Pinned {
  Expected predictions;
  Expected model;
};

/// The value recorded for the live table; false (case skipped) for a table
/// with no recorded value, e.g. neon.
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

template <typename T>
std::uint32_t bytes_crc(std::span<const T> v) {
  return util::crc32c(std::string_view(reinterpret_cast<const char*>(v.data()),
                                       v.size() * sizeof(T)));
}

std::uint32_t model_crc(const MultiModelRegressor& model) {
  std::ostringstream os(std::ios::binary);
  io::write_model_section(os, model);
  return util::crc32c(os.str());
}

void expect_pinned(const char* what, std::size_t d, const Pinned& pinned,
                   std::uint32_t predictions, std::uint32_t model,
                   const char* predictions_label = "predictions",
                   const char* model_label = "model bytes") {
  std::uint32_t want_predictions = 0;
  std::uint32_t want_model = 0;
  if (!expected_for_backend(pinned.predictions, want_predictions) ||
      !expected_for_backend(pinned.model, want_model)) {
    GTEST_SKIP() << "no recorded CRCs for the " << hdc::active_backend().name << " table";
  }
  EXPECT_EQ(predictions, want_predictions) << what << " " << predictions_label << ", D = " << d;
  EXPECT_EQ(model, want_model) << what << " " << model_label << ", D = " << d;
}

data::Dataset make_dataset(std::size_t rows, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> flat(rows * kFeatures);
  std::vector<double> targets(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    double sum = 0.0;
    for (std::size_t f = 0; f < kFeatures; ++f) {
      const double x = rng.normal(0.0, 1.0);
      flat[i * kFeatures + f] = x;
      sum += x * (f % 2 == 0 ? 0.6 : -0.3);
    }
    targets[i] = std::sin(sum) + 0.1 * sum;
  }
  return {"sign-parity", kFeatures, std::move(flat), std::move(targets)};
}

struct Data {
  std::unique_ptr<hdc::Encoder> encoder;
  data::Dataset raw_train;
  data::Dataset raw_val;
  EncodedDataset train;
  EncodedDataset val;
};

Data make_data(std::size_t d) {
  Data out;
  hdc::EncoderConfig enc;
  enc.input_dim = kFeatures;
  enc.dim = d;
  out.encoder = hdc::make_encoder(enc);
  out.raw_train = make_dataset(96, 0x5165A);
  out.raw_val = make_dataset(32, 0x7A1);
  out.train = EncodedDataset::from(*out.encoder, out.raw_train, 1);
  out.val = EncodedDataset::from(*out.encoder, out.raw_val, 1);
  return out;
}

/// The shared data set at kDims[i].
const Data& data(std::size_t i) {
  static const Data by_dim[2] = {make_data(kDims[0]), make_data(kDims[1])};
  return by_dim[i];
}

RegHDConfig binary_query_config(std::size_t d) {
  RegHDConfig cfg;
  cfg.dim = d;
  cfg.models = 4;
  cfg.max_epochs = 3;
  cfg.requantize_interval = 10;
  cfg.query_precision = QueryPrecision::kBinary;
  return cfg;
}

/// Labels from target terciles, for the classifier.
std::vector<std::size_t> labels_of(const EncodedDataset& set) {
  std::vector<std::size_t> out;
  for (const double y : set.targets()) {
    out.push_back(y < -0.3 ? 0 : (y < 0.3 ? 1 : 2));
  }
  return out;
}

// One row per D in kDims order: {predictions, model bytes}, each
// {avx512, avx2, scalar}.
const Pinned kTrainStep[] = {
    {{4293828220u, 4293828220u, 2196344962u}, {3375367635u, 3375367635u, 589834157u}},
    {{95997346u, 95997346u, 457328275u}, {1884731702u, 588047486u, 1225471620u}},
};
const Pinned kTrainBatch[] = {
    {{376009284u, 1390839077u, 3469141965u}, {883895511u, 1919444898u, 994844890u}},
    {{102893210u, 2374008234u, 3586671795u}, {2868287794u, 3311851473u, 3508399749u}},
};
const Pinned kFitFullPrecision[] = {
    {{2225204722u, 2712923725u, 4277292043u}, {2720431435u, 1391982754u, 1809482429u}},
    {{998841478u, 3139258881u, 3391056753u}, {738793061u, 1956164643u, 29850129u}},
};
const Pinned kFitQuantized[] = {
    {{1591682856u, 1591682856u, 1668542993u}, {3422728588u, 3422728588u, 3956535552u}},
    {{2035956960u, 2035956960u, 1143712279u}, {182533178u, 182533178u, 4170946492u}},
};
const Pinned kClassifier[] = {
    {{3642087570u, 3642087570u, 3642087570u}, {3203209295u, 3203209295u, 3203209295u}},
    {{3642087570u, 3642087570u, 3642087570u}, {3775064635u, 3775064635u, 3775064635u}},
};
const Pinned kBaselineHd[] = {
    {{4224613879u, 4224613879u, 4224613879u}, {710291760u, 710291760u, 710291760u}},
    {{2794558544u, 2794558544u, 2794558544u}, {710291760u, 710291760u, 710291760u}},
};
const Pinned kClustering[] = {
    {{243130426u, 243130426u, 243130426u}, {3319139690u, 3444345503u, 2368324951u}},
    {{2996059574u, 2996059574u, 2996059574u}, {441254962u, 2639706648u, 3032951097u}},
};
// {real outputs, packed outputs}.
const Pinned kNonlinearEncoder[] = {
    {{853432494u, 853432494u, 853432494u}, {440085294u, 440085294u, 440085294u}},
    {{903845975u, 903845975u, 903845975u}, {1525440620u, 1525440620u, 1525440620u}},
};
// {cluster accumulator rows, packed cluster rows}.
const Pinned kMultiModelInit[] = {
    {{3871957708u, 3871957708u, 3871957708u}, {770041673u, 770041673u, 770041673u}},
    {{1922665546u, 1922665546u, 1922665546u}, {1065502676u, 1065502676u, 1065502676u}},
};
// {assignments, center accumulator rows}.
const Pinned kClusteringRandomInit[] = {
    {{3486115504u, 3486115504u, 3486115504u}, {1553181682u, 3313142661u, 1335285839u}},
    {{3486115504u, 3486115504u, 3486115504u}, {678446089u, 2822975772u, 980596961u}},
};

TEST(SignParityTest, BinaryQueryTrainStep) {
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t d = kDims[i];
    const Data& set = data(i);
    MultiModelRegressor model(binary_query_config(d));
    std::vector<double> predictions;
    for (std::size_t pass = 0; pass < 2; ++pass) {
      for (std::size_t r = 0; r < set.train.size(); ++r) {
        predictions.push_back(model.train_step(set.train.sample(r), set.train.target(r)));
      }
    }
    expect_pinned("train_step", d, kTrainStep[i],
                  bytes_crc(std::span<const double>(predictions)), model_crc(model));
  }
}

TEST(SignParityTest, BinaryQueryTrainBatchAtOneAndFourThreads) {
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t d = kDims[i];
    const Data& set = data(i);
    for (const std::size_t threads : {1, 4}) {
      MultiModelRegressor model(binary_query_config(d));
      std::vector<double> predictions(set.train.size());
      std::vector<std::size_t> rows(8);
      for (std::size_t b0 = 0; b0 < set.train.size(); b0 += rows.size()) {
        for (std::size_t j = 0; j < rows.size(); ++j) {
          rows[j] = (b0 + 5 * j) % set.train.size();
        }
        model.train_batch(set.train, rows,
                          std::span<double>(predictions).subspan(b0, rows.size()), threads);
      }
      SCOPED_TRACE(threads);
      expect_pinned("train_batch", d, kTrainBatch[i],
                    bytes_crc(std::span<const double>(predictions)), model_crc(model));
    }
  }
}

/// fit() with farthest-point seeding, then the batch and fused single-query
/// predict paths over the validation rows.
void check_fit(const char* what, ClusterMode clusters, ModelPrecision models,
               const Pinned (&pinned)[2]) {
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t d = kDims[i];
    const Data& set = data(i);
    RegHDConfig cfg = binary_query_config(d);
    cfg.cluster_mode = clusters;
    cfg.model_precision = models;
    cfg.cluster_init = ClusterInit::kFarthestPoint;
    MultiModelRegressor model(cfg);
    (void)model.fit(set.train, set.val);
    std::vector<double> predictions = model.predict_batch(set.val, 1);
    for (std::size_t r = 0; r < set.raw_val.size(); ++r) {
      predictions.push_back(model.predict_one(*set.encoder, set.raw_val.row(r)));
    }
    expect_pinned(what, d, pinned[i], bytes_crc(std::span<const double>(predictions)),
                  model_crc(model));
  }
}

TEST(SignParityTest, BinaryQueryFitFullPrecisionClusters) {
  check_fit("fit, full-precision clusters", ClusterMode::kFullPrecision,
            ModelPrecision::kReal, kFitFullPrecision);
}

TEST(SignParityTest, BinaryQueryFitQuantizedClustersBinaryModels) {
  check_fit("fit, quantized clusters", ClusterMode::kQuantized, ModelPrecision::kBinary,
            kFitQuantized);
}

TEST(SignParityTest, HdClassifier) {
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t d = kDims[i];
    const Data& set = data(i);
    HdClassifierConfig cfg;
    cfg.dim = d;
    cfg.classes = 3;
    cfg.max_epochs = 6;
    HdClassifier classifier(cfg);
    (void)classifier.fit(set.train, labels_of(set.train), set.val, labels_of(set.val));
    std::vector<std::uint64_t> predictions;
    for (std::size_t r = 0; r < set.val.size(); ++r) {
      predictions.push_back(classifier.predict(set.val.sample(r)));
    }
    std::vector<double> model;
    for (std::size_t c = 0; c < cfg.classes; ++c) {
      const auto v = classifier.class_hv(c).values();
      model.insert(model.end(), v.begin(), v.end());
    }
    expect_pinned("HdClassifier", d, kClassifier[i],
                  bytes_crc(std::span<const std::uint64_t>(predictions)),
                  bytes_crc(std::span<const double>(model)));
  }
}

TEST(SignParityTest, BaselineHd) {
  // The class hypervectors are private; the predictions over every training
  // and validation row stand in for them (each is the center of the bin
  // whose class vector scores highest).
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t d = kDims[i];
    const Data& set = data(i);
    baselines::BaselineHdConfig cfg;
    cfg.dim = d;
    cfg.bins = 32;
    cfg.epochs = 5;
    baselines::BaselineHd model(cfg);
    model.fit(set.raw_train);
    std::vector<double> val_predictions;
    for (std::size_t r = 0; r < set.raw_val.size(); ++r) {
      val_predictions.push_back(model.predict(set.raw_val.row(r)));
    }
    std::vector<double> train_predictions;
    for (std::size_t r = 0; r < set.raw_train.size(); ++r) {
      train_predictions.push_back(model.predict(set.raw_train.row(r)));
    }
    expect_pinned("BaselineHd", d, kBaselineHd[i],
                  bytes_crc(std::span<const double>(val_predictions)),
                  bytes_crc(std::span<const double>(train_predictions)));
  }
}

TEST(SignParityTest, HdClustering) {
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t d = kDims[i];
    const Data& set = data(i);
    HdClusteringConfig cfg;
    cfg.dim = d;
    cfg.clusters = 4;
    cfg.max_epochs = 5;
    cfg.init = ClusterInit::kFarthestPoint;
    HdClustering clustering(cfg);
    const HdClusteringReport report = clustering.fit(set.train);
    std::vector<std::uint64_t> assignments(report.assignments.begin(),
                                           report.assignments.end());
    std::vector<double> model;
    for (std::size_t c = 0; c < cfg.clusters; ++c) {
      const auto v = clustering.center_accumulator(c);
      model.insert(model.end(), v.begin(), v.end());
    }
    expect_pinned("HdClustering", d, kClustering[i],
                  bytes_crc(std::span<const std::uint64_t>(assignments)),
                  bytes_crc(std::span<const double>(model)));
  }
}

TEST(SignParityTest, NonlinearFeatureEncoder) {
  // Eq. 1 reads its ±1 base vectors B_k in encode() (the sign-flipped axpy)
  // and in encode_reference() (B_k·f_k inside the trig calls).
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t d = kDims[i];
    const Data& set = data(i);
    hdc::EncoderConfig enc;
    enc.kind = hdc::EncoderKind::kNonlinearFeature;
    enc.input_dim = kFeatures;
    enc.dim = d;
    const hdc::NonlinearFeatureEncoder encoder(enc);
    std::vector<double> real;
    std::vector<std::uint64_t> packed;
    for (std::size_t r = 0; r < set.raw_val.size(); ++r) {
      const hdc::EncodedSample s = encoder.encode(set.raw_val.row(r));
      real.insert(real.end(), s.real.values().begin(), s.real.values().end());
      packed.insert(packed.end(), s.binary.words().begin(), s.binary.words().end());
      const hdc::RealHV ref = encoder.encode_reference(set.raw_val.row(r));
      real.insert(real.end(), ref.values().begin(), ref.values().end());
    }
    expect_pinned("NonlinearFeatureEncoder", d, kNonlinearEncoder[i],
                  bytes_crc(std::span<const double>(real)),
                  bytes_crc(std::span<const std::uint64_t>(packed)), "real outputs",
                  "packed outputs");
  }
}

TEST(SignParityTest, MultiModelRandomClusterInit) {
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t d = kDims[i];
    const MultiModelRegressor model(binary_query_config(d));
    std::vector<double> rows;
    std::vector<std::uint64_t> packed;
    for (std::size_t c = 0; c < model.config().models; ++c) {
      const auto acc = model.cluster_accumulator(c);
      rows.insert(rows.end(), acc.begin(), acc.end());
      const auto words = model.cluster(c).binary.words();
      packed.insert(packed.end(), words.begin(), words.end());
    }
    expect_pinned("MultiModelRegressor init", d, kMultiModelInit[i],
                  bytes_crc(std::span<const double>(rows)),
                  bytes_crc(std::span<const std::uint64_t>(packed)), "cluster rows",
                  "packed cluster rows");
  }
}

TEST(SignParityTest, HdClusteringRandomInit) {
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t d = kDims[i];
    const Data& set = data(i);
    HdClusteringConfig cfg;
    cfg.dim = d;
    cfg.clusters = 4;
    cfg.max_epochs = 5;
    cfg.init = ClusterInit::kRandom;
    HdClustering clustering(cfg);
    const HdClusteringReport report = clustering.fit(set.train);
    std::vector<std::uint64_t> assignments(report.assignments.begin(),
                                           report.assignments.end());
    std::vector<double> model;
    for (std::size_t c = 0; c < cfg.clusters; ++c) {
      const auto v = clustering.center_accumulator(c);
      model.insert(model.end(), v.begin(), v.end());
    }
    expect_pinned("HdClustering, random init", d, kClusteringRandomInit[i],
                  bytes_crc(std::span<const std::uint64_t>(assignments)),
                  bytes_crc(std::span<const double>(model)), "assignments", "center rows");
  }
}

TEST(SignParityTest, CapacitySimulatorHits) {
  // The superposed memory is integer-valued, so every probe dot is exact in
  // any summation order: one hit count holds for every table.
  hdc::CapacityQuery query;
  query.dimension = 1000;
  query.patterns = 40;
  query.threshold = 0.1;
  constexpr std::size_t kTrials = 4000;
  const std::pair<std::uint64_t, std::size_t> pinned[] = {{0xCA9A, 1220}, {0x5EED, 1177}};
  for (const auto& [seed, hits] : pinned) {
    util::Rng rng(seed);
    const double rate = hdc::simulate_false_positive_rate(query, kTrials, rng);
    EXPECT_EQ(static_cast<std::size_t>(std::lround(rate * kTrials)), hits) << "seed " << seed;
  }
}

}  // namespace
}  // namespace reghd::core
