// Streaming IoT regression: the deployment scenario that motivates RegHD
// (paper §1/§3) — an embedded node learning online from a sensor stream
// under a tight energy budget and unreliable hardware.
//
// Demonstrates:
//  * single-pass *online* training with train_step() (no stored dataset);
//  * the fully-quantized configuration (binary cluster, binary query) that
//    an embedded deployment would run;
//  * robustness: predictions under injected bit flips in the query
//    hypervector, the paper's §3 hardware-noise argument.
//
//   ./iot_sensor_stream [--dim 2048] [--models 4] [--stream 3000]
#include <iostream>
#include <memory>

#include "core/reghd.hpp"
#include "data/scaler.hpp"
#include "data/synthetic.hpp"
#include "hdc/random_hv.hpp"
#include "util/args.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace reghd;

  const util::Args args(argc, argv);
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 2048));
  const auto models = static_cast<std::size_t>(args.get_int("models", 4));
  const auto stream_len = static_cast<std::size_t>(args.get_int("stream", 3000));

  // The "sensor": an airfoil-self-noise-style stream — 5 physical channels,
  // one acoustic target (dB).
  data::Dataset stream = data::make_paper_dataset("airfoil", 77);
  data::StandardScaler feature_scaler;
  feature_scaler.fit(stream);
  feature_scaler.transform(stream);
  data::TargetScaler target_scaler;
  target_scaler.fit(stream);
  target_scaler.transform(stream);

  // Embedded configuration: quantized clusters + binary queries.
  core::RegHDConfig cfg;
  cfg.dim = dim;
  cfg.models = models;
  cfg.cluster_mode = core::ClusterMode::kQuantized;
  cfg.query_precision = core::QueryPrecision::kBinary;
  cfg.seed = 77;
  core::MultiModelRegressor node(cfg);

  hdc::EncoderConfig enc_cfg;
  enc_cfg.input_dim = stream.num_features();
  enc_cfg.dim = dim;
  enc_cfg.seed = 77;
  const auto encoder = hdc::make_encoder(enc_cfg);

  // Online loop: predict-then-train on each arriving reading (prequential
  // evaluation). The node never stores raw data.
  std::cout << "online prequential error over the stream (dB², original units):\n";
  util::RunningStats window;
  std::size_t seen = 0;
  for (std::size_t i = 0; i < stream.size() && seen < stream_len; ++i, ++seen) {
    const hdc::EncodedSample reading = encoder->encode(stream.row(i));
    const double before = node.train_step(reading, stream.target(i));
    const double err_db = (before - stream.target(i)) * target_scaler.stddev();
    window.add(err_db * err_db);
    if (seen > 0 && seen % 500 == 0) {
      std::cout << "  after " << seen << " readings: windowed MSE "
                << util::Table::cell(window.mean(), 2) << "\n";
      window = util::RunningStats{};
      node.requantize();  // refresh binary snapshots, as a batch boundary
    }
  }
  node.requantize();

  // Robustness under hardware faults: corrupt query bits and re-measure.
  std::cout << "\nrobustness to query bit flips (paper §3):\n";
  util::Rng noise_rng(99);
  for (const double flip : {0.0, 0.01, 0.05, 0.10}) {
    double acc = 0.0;
    const std::size_t eval_count = std::min<std::size_t>(500, stream.size());
    for (std::size_t i = 0; i < eval_count; ++i) {
      hdc::EncodedSample reading = encoder->encode(stream.row(i));
      if (flip > 0.0) {
        reading.binary = hdc::flip_noise(reading.binary, flip, noise_rng);
      }
      const double err_db = (node.predict(reading) - stream.target(i)) * target_scaler.stddev();
      acc += err_db * err_db;
    }
    std::cout << "  " << util::Table::cell_percent(100.0 * flip, 0)
              << " bits flipped -> MSE " << util::Table::cell(acc / static_cast<double>(eval_count), 2)
              << " dB²\n";
  }
  std::cout << "\ninformation is spread across all " << dim
            << " dimensions, so moderate bit-flip rates only dent the accuracy.\n";
  return 0;
}
