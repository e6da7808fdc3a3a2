// make_golden — regenerates the committed golden model blobs under
// tests/golden/ that pin the on-disk format (see DESIGN.md).
//
// Produces, deterministically (fixed seeds, threads = 1):
//   pipeline_v2.reghd — a trained pipeline in the v2 checksummed container
//   online_v2.reghd   — a full online-learner checkpoint (file kind ONLN)
//   queries.txt       — query rows, hexfloat, "count features" header
//   predictions.txt   — per query: "<pipeline pred> <online pred>" hexfloat
//
// Run from the repository root after any INTENTIONAL format change:
//   build/tools/make_golden --dir tests/golden
// and commit the result. core_golden_model_test then fails on any
// UNINTENTIONAL change to how existing blobs parse or predict.
//
// pipeline_v1.reghd, the same pipeline in the legacy v1 container, is not
// written here: nothing writes v1 any more, so that blob is frozen at its
// committed bytes and pins the v1 reader. A rerun that changes the trained
// pipeline makes the two blobs decode to different models, which
// GoldenModelTest.V1AndV2BlobsDecodeToTheSameModel reports.
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "core/reghd.hpp"
#include "data/synthetic.hpp"
#include "util/args.hpp"

namespace {

using namespace reghd;

void write_binary(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw std::runtime_error("cannot write " + path.string());
  }
  std::cout << "wrote " << path.string() << " (" << bytes.size() << " bytes)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::filesystem::path dir = args.get_string("dir", "tests/golden");
  try {
    std::filesystem::create_directories(dir);

    // Small on purpose: the blobs are committed, and format stability does
    // not depend on scale.
    core::PipelineConfig cfg;
    cfg.reghd.dim = 256;
    cfg.reghd.models = 4;
    cfg.reghd.max_epochs = 12;
    cfg.reghd.cluster_mode = core::ClusterMode::kQuantized;
    cfg.reghd.model_precision = core::ModelPrecision::kTernary;
    cfg.reghd.seed = 42;
    cfg.reghd.threads = 1;

    const data::Dataset train = data::make_friedman1(256, 7);
    core::RegHDPipeline pipeline(cfg);
    pipeline.fit(train);

    std::ostringstream v2(std::ios::binary);
    core::save_pipeline(v2, pipeline);
    write_binary(dir / "pipeline_v2.reghd", v2.str());

    core::OnlineConfig online_cfg;
    online_cfg.reghd = cfg.reghd;
    online_cfg.requantize_every = 64;
    online_cfg.decay = 0.999;
    core::OnlineRegHD learner(online_cfg, train.num_features());
    for (std::size_t i = 0; i < 200; ++i) {
      learner.update(train.row(i), train.target(i));
    }
    std::ostringstream online(std::ios::binary);
    core::save_online_checkpoint(online, learner);
    write_binary(dir / "online_v2.reghd", online.str());

    const data::Dataset queries = data::make_friedman1(8, 99);
    std::ofstream qf(dir / "queries.txt");
    std::ofstream pf(dir / "predictions.txt");
    qf << std::hexfloat;
    pf << std::hexfloat;
    qf << queries.size() << " " << queries.num_features() << "\n";
    for (std::size_t i = 0; i < queries.size(); ++i) {
      for (const double x : queries.row(i)) {
        qf << x << " ";
      }
      qf << "\n";
      pf << pipeline.predict(queries.row(i)) << " "
         << learner.predict(queries.row(i)) << "\n";
    }
    if (!qf || !pf) {
      throw std::runtime_error("cannot write query/prediction text files");
    }
    std::cout << "wrote " << (dir / "queries.txt").string() << " and "
              << (dir / "predictions.txt").string() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "make_golden: error: " << e.what() << "\n";
    return 2;
  }
}
