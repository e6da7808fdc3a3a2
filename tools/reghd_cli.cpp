// reghd — command-line front end for training, evaluating, and serving RegHD
// models on CSV data.
//
//   reghd train   --csv data.csv --out model.bin [--models 8] [--dim 4096]
//                 [--alpha 0.15] [--quantized] [--binary-query] [--binary-model]
//                 [--test-fraction 0.25] [--seed 42] [--target-col -1]
//                 [--batch B] [--checkpoint-dir DIR --checkpoint-every EPOCHS]
//                 [--shards S] [--refine-epochs R]
//                 (--batch B trains in deterministic batch-frozen mini-batches
//                 of B samples, parallelized over --threads workers; results
//                 depend only on B, and B = 1 matches the default online
//                 sample-by-sample training bit for bit; --shards S trains S
//                 independent replicas on disjoint shards in parallel and
//                 merges them by HD bundling, --refine-epochs R adds R
//                 sequential full-data epochs after the merge — see
//                 core/sharded_training.hpp)
//   reghd eval    --csv data.csv --model model.bin [--target-col -1]
//   reghd predict --csv data.csv --model model.bin [--target-col -1]
//                 (prints one prediction per input row; rows are encoded and
//                 predicted in parallel via the batched pipeline path)
//   reghd stream  --csv data.csv [--checkpoint-dir DIR] [--checkpoint-every N]
//                 [--resume] [--out model.bin]
//                 (prequential online learning, row by row; with
//                 --checkpoint-dir the full stream state is checkpointed
//                 atomically every N updates, and --resume restarts from the
//                 newest valid checkpoint, replaying only the rows after it —
//                 the resumed model is bit-identical to an uninterrupted run)
//   reghd serve   --csv data.csv [--shards S] [--batch-threshold N]
//                 [--max-batch N] [--train-every N] [--publish-interval-ms M]
//                 [--checkpoint-dir DIR]
//                 (replays the CSV through the shard-per-core serving runtime:
//                 every row is a predict request routed by key to a shard
//                 worker — admission-batched onto the bank-scan path when the
//                 queue is deep, fused single-query otherwise — and every Nth
//                 row also feeds the shard's online trainer, which publishes
//                 immutable model snapshots the workers hot-swap lock-free)
//   reghd info    --model model.bin
//   reghd synth   --dataset boston --out boston.csv [--seed 1]
//                 (writes one of the built-in synthetic workloads as CSV)
//
// train/eval/predict/stream accept --threads N to cap the worker count of the
// batched encode/predict paths and of the per-sample training team (default:
// REGHD_THREADS environment variable, else hardware concurrency). Thread
// count never changes results.
//
// train, stream and serve accept --stats (print a per-stage counter/latency
// table), --telemetry-json PATH and --telemetry-prom PATH (write the run's
// obs/ telemetry snapshot as JSON / Prometheus text exposition). Any of the
// three enables the runtime telemetry layer for the run; it is off by
// default.
//
// Exit status: 0 on success, 1 on usage error (an unknown command or an
// option the subcommand does not read), 2 on runtime failure.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/reghd.hpp"
#include "serve/server.hpp"
#include "data/csv.hpp"
#include "data/synthetic.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "util/args.hpp"
#include "util/atomic_file.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"

namespace {

using namespace reghd;

int usage(const std::string& program) {
  std::cerr << "usage:\n"
            << "  " << program << " train   --csv FILE --out MODEL [options]\n"
            << "  " << program << " eval    --csv FILE --model MODEL\n"
            << "  " << program << " predict --csv FILE --model MODEL\n"
            << "  " << program << " stream  --csv FILE [--checkpoint-dir DIR] [--resume]\n"
            << "  " << program << " serve   --csv FILE [--shards S] [--train-every N]\n"
            << "  " << program << " info    --model MODEL\n"
            << "  " << program << " synth   --dataset NAME --out FILE\n"
            << "train options: --models K --dim D --alpha LR --quantized\n"
            << "  --binary-query --binary-model --test-fraction F --seed S\n"
            << "  --batch B (deterministic mini-batches of B samples, parallel\n"
            << "  across --threads workers; 0 = online sample-by-sample, default)\n"
            << "  --checkpoint-dir DIR --checkpoint-every EPOCHS (periodic atomic\n"
            << "  snapshots of the fitting pipeline; newest K kept)\n"
            << "  --shards S (data-parallel: S replicas on disjoint shards, merged\n"
            << "  by HD bundling; 1 = plain fit, default) --refine-epochs R\n"
            << "  (sequential full-data epochs after the merge; default 0)\n"
            << "stream options: --models K --dim D --alpha LR --quantized --seed S\n"
            << "  --decay D --requantize-every N --checkpoint-dir DIR\n"
            << "  --checkpoint-every UPDATES --keep-last K --resume --out MODEL\n"
            << "serve options: --shards S (worker/trainer thread pairs; default 1)\n"
            << "  --batch-threshold N (queued depth that flips admission onto the\n"
            << "  batched bank-scan path; default 4) --max-batch N (default 64)\n"
            << "  --train-every N (every Nth row also trains; 0 = serve only,\n"
            << "  default 1) --publish-interval-ms M (snapshot publish cadence,\n"
            << "  default 50) --checkpoint-dir DIR (per-shard persistence; shards\n"
            << "  recover from it on start) plus the stream model options above\n"
            << "  --tenant-budget N (N > 0 switches to per-tenant models: rows are\n"
            << "  tenants keyed i mod --tenants, at most N resident per shard, LRU\n"
            << "  spill beyond) --tenants T (tenant id space; default 64)\n"
            << "  --tenant-spill-dir DIR (evicted tenants persist here)\n"
            << "common (train/stream/serve): --projection-storage resident|rematerialized\n"
            << "  (rematerialized keeps no F×D matrix per model: each encoding\n"
            << "  thread regenerates one copy when F·D·8 bytes fit 1 MiB, else\n"
            << "  16-row tiles on the fly; encodings are bit-identical either way)\n"
            << "common: --target-col N (negative counts from the end; default -1)\n"
            << "  --threads N (train/eval/predict/stream: batch encode/predict and\n"
            << "  training-team workers; default REGHD_THREADS or hardware\n"
            << "  concurrency)\n"
            << "telemetry (train/stream/serve): --stats (per-stage counter/latency table)\n"
            << "  --telemetry-json PATH --telemetry-prom PATH (JSON / Prometheus\n"
            << "  text exposition of the run's counters and latency histograms)\n";
  return 1;
}

data::Dataset load(const util::Args& args) {
  data::CsvOptions opts;
  opts.target_column = static_cast<int>(args.get_int("target-col", -1));
  return data::load_csv_file(args.get_string("csv", ""), opts);
}

/// Turns on the obs/ telemetry layer when any telemetry flag is present.
/// Returns true if emit_telemetry should run at the end of the command.
bool setup_telemetry(const util::Args& args) {
  const bool wanted = args.get_bool("stats", false) || args.has("telemetry-json") ||
                      args.has("telemetry-prom");
  if (wanted) {
    obs::set_enabled(true);
  }
  return wanted;
}

/// Emits the merged telemetry snapshot in every requested format: a human
/// table on stdout (--stats), JSON (--telemetry-json PATH) and Prometheus
/// text exposition (--telemetry-prom PATH).
void emit_telemetry(const util::Args& args) {
  const obs::TelemetrySnapshot snap = obs::snapshot();
  if (args.get_bool("stats", false)) {
    std::cout << obs::to_table(snap);
  }
  const std::string json_path = args.get_string("telemetry-json", "");
  if (!json_path.empty()) {
    util::atomic_write_file(json_path, obs::to_json(snap));
    std::cout << "telemetry written to " << json_path << "\n";
  }
  const std::string prom_path = args.get_string("telemetry-prom", "");
  if (!prom_path.empty()) {
    util::atomic_write_file(prom_path, obs::to_prometheus(snap));
    std::cout << "telemetry written to " << prom_path << "\n";
  }
}

int cmd_train(const util::Args& args) {
  const std::string out_path = args.get_string("out", "");
  if (!args.has("csv") || out_path.empty()) {
    std::cerr << "train: --csv and --out are required\n";
    return 1;
  }
  const bool telemetry = setup_telemetry(args);
  data::Dataset dataset = load(args);

  core::PipelineConfig cfg;
  cfg.reghd.models = static_cast<std::size_t>(args.get_int("models", 8));
  cfg.reghd.dim = static_cast<std::size_t>(args.get_int("dim", 4096));
  cfg.reghd.learning_rate = args.get_double("alpha", 0.15);
  cfg.reghd.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  cfg.reghd.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  cfg.reghd.batch_size = static_cast<std::size_t>(args.get_int("batch", 0));
  if (args.get_bool("quantized", false)) {
    cfg.reghd.cluster_mode = core::ClusterMode::kQuantized;
  }
  if (args.get_bool("binary-query", false)) {
    cfg.reghd.query_precision = core::QueryPrecision::kBinary;
  }
  if (args.get_bool("binary-model", false)) {
    cfg.reghd.model_precision = core::ModelPrecision::kBinary;
  }
  cfg.encoder.projection_storage =
      hdc::projection_storage_from_string(args.get_string("projection-storage", "resident"));

  const double test_fraction = args.get_double("test-fraction", 0.25);
  util::Rng rng(cfg.reghd.seed);
  const data::TrainTestSplit split = data::train_test_split(dataset, test_fraction, rng);

  core::RegHDPipeline pipeline(cfg);
  const auto shards = static_cast<std::size_t>(args.get_int("shards", 1));
  const auto refine_epochs = static_cast<std::size_t>(args.get_int("refine-epochs", 0));
  const std::string ckpt_dir = args.get_string("checkpoint-dir", "");
  if (shards > 1 || refine_epochs > 0) {
    if (!ckpt_dir.empty()) {
      std::cerr << "train: --checkpoint-dir is not supported with --shards / "
                   "--refine-epochs (shard fits have no global epoch stream)\n";
      return 1;
    }
    core::ShardedTrainConfig sharded_cfg;
    sharded_cfg.shards = shards;
    sharded_cfg.refine_epochs = refine_epochs;
    sharded_cfg.threads = cfg.reghd.threads;
    const core::ShardedTrainReport sharded = pipeline.fit_sharded(split.train, sharded_cfg);
    std::cout << "sharded fit: " << sharded.shards << " shards";
    for (const core::ShardReport& sr : sharded.shard_reports) {
      std::cout << " [" << sr.shard << ": " << sr.rows << " rows, "
                << sr.report.epochs_run << " epochs]";
    }
    std::cout << "\nmerged val mse=" << sharded.merged_val_mse;
    if (refine_epochs > 0) {
      std::cout << ", refined (" << sharded.refine_history.size()
                << " epochs) val mse=" << sharded.final_val_mse;
    }
    std::cout << "\n";
  } else if (ckpt_dir.empty()) {
    pipeline.fit(split.train);
  } else {
    core::CheckpointConfig ckpt_cfg;
    ckpt_cfg.dir = ckpt_dir;
    ckpt_cfg.keep_last = static_cast<std::size_t>(args.get_int("keep-last", 3));
    core::CheckpointManager manager(ckpt_cfg);
    core::TrainingHooks hooks;
    hooks.checkpoint_every = static_cast<std::size_t>(args.get_int("checkpoint-every", 1));
    hooks.on_checkpoint = [&](std::size_t epoch) {
      const std::string path = manager.save(pipeline, epoch + 1);
      std::cout << "checkpoint: " << path << "\n";
    };
    pipeline.fit(split.train, hooks);
  }
  std::cout << "trained " << pipeline.name() << " on " << split.train.size()
            << " samples: " << pipeline.report().summary() << "\n";

  const std::vector<double> predictions = pipeline.predict_batch(split.test);
  const util::RegressionMetrics metrics =
      util::evaluate_regression(predictions, split.test.targets());
  std::cout << "held-out test (" << split.test.size() << " samples): "
            << metrics.to_string() << "\n";

  core::save_pipeline_file(out_path, pipeline);
  std::cout << "model written to " << out_path << "\n";
  if (telemetry) {
    emit_telemetry(args);
  }
  return 0;
}

int cmd_eval(const util::Args& args) {
  if (!args.has("csv") || !args.has("model")) {
    std::cerr << "eval: --csv and --model are required\n";
    return 1;
  }
  core::RegHDPipeline pipeline = core::load_pipeline_file(args.get_string("model", ""));
  pipeline.set_threads(static_cast<std::size_t>(args.get_int("threads", 0)));
  const data::Dataset dataset = load(args);
  const std::vector<double> predictions = pipeline.predict_batch(dataset);
  const util::RegressionMetrics metrics =
      util::evaluate_regression(predictions, dataset.targets());
  std::cout << pipeline.name() << " on " << dataset.name() << " (" << dataset.size()
            << " samples): " << metrics.to_string() << "\n";
  return 0;
}

int cmd_predict(const util::Args& args) {
  if (!args.has("csv") || !args.has("model")) {
    std::cerr << "predict: --csv and --model are required\n";
    return 1;
  }
  core::RegHDPipeline pipeline = core::load_pipeline_file(args.get_string("model", ""));
  pipeline.set_threads(static_cast<std::size_t>(args.get_int("threads", 0)));
  const data::Dataset dataset = load(args);
  // One batched call: rows are scaled, encoded, and predicted in parallel.
  for (const double y : pipeline.predict_batch(dataset)) {
    std::cout << y << "\n";
  }
  return 0;
}

int cmd_stream(const util::Args& args) {
  if (!args.has("csv")) {
    std::cerr << "stream: --csv is required\n";
    return 1;
  }
  const bool telemetry = setup_telemetry(args);
  const data::Dataset dataset = load(args);
  const std::string ckpt_dir = args.get_string("checkpoint-dir", "");
  if (args.get_bool("resume", false) && ckpt_dir.empty()) {
    std::cerr << "stream: --resume requires --checkpoint-dir\n";
    return 1;
  }

  core::OnlineConfig cfg;
  cfg.reghd.models = static_cast<std::size_t>(args.get_int("models", 8));
  cfg.reghd.dim = static_cast<std::size_t>(args.get_int("dim", 4096));
  cfg.reghd.learning_rate = args.get_double("alpha", 0.15);
  cfg.reghd.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  cfg.reghd.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  if (args.get_bool("quantized", false)) {
    cfg.reghd.cluster_mode = core::ClusterMode::kQuantized;
  }
  cfg.decay = args.get_double("decay", 1.0);
  cfg.requantize_every = static_cast<std::size_t>(args.get_int("requantize-every", 256));
  cfg.encoder.projection_storage =
      hdc::projection_storage_from_string(args.get_string("projection-storage", "resident"));

  std::optional<core::CheckpointManager> manager;
  if (!ckpt_dir.empty()) {
    core::CheckpointConfig ckpt_cfg;
    ckpt_cfg.dir = ckpt_dir;
    ckpt_cfg.keep_last = static_cast<std::size_t>(args.get_int("keep-last", 3));
    ckpt_cfg.every = static_cast<std::size_t>(args.get_int("checkpoint-every", 0));
    manager.emplace(ckpt_cfg);
  }

  std::optional<core::OnlineRegHD> learner;
  if (args.get_bool("resume", false)) {
    learner = manager->recover();
    if (learner) {
      std::cout << "resumed from checkpoint at step " << learner->samples_seen() << "\n";
      if (learner->num_features() != dataset.num_features()) {
        std::cerr << "stream: checkpoint expects " << learner->num_features()
                  << " features but the CSV has " << dataset.num_features() << "\n";
        return 2;
      }
    } else {
      std::cout << "no recoverable checkpoint; starting fresh\n";
    }
  }
  if (!learner) {
    learner.emplace(cfg, dataset.num_features());
  }

  // Prequential pass: rows before samples_seen were already consumed by the
  // checkpointed run, so a resume replays only the tail — bit-identical to a
  // stream that was never interrupted.
  const std::size_t start = std::min(learner->samples_seen(), dataset.size());
  double abs_err = 0.0;
  double sq_err = 0.0;
  std::size_t scored = 0;
  for (std::size_t i = start; i < dataset.size(); ++i) {
    const double y = dataset.target(i);
    const double pred = learner->update(dataset.row(i), y);
    abs_err += std::abs(pred - y);
    sq_err += (pred - y) * (pred - y);
    ++scored;
    if (manager) {
      manager->maybe_save(*learner);
    }
  }
  if (scored > 0) {
    const double n = static_cast<double>(scored);
    std::cout << "prequential over " << scored << " updates: mae=" << abs_err / n
              << " mse=" << sq_err / n << "\n";
  } else {
    std::cout << "no new rows to process (stream already at step "
              << learner->samples_seen() << ")\n";
  }
  if (manager) {
    std::cout << "final checkpoint: " << manager->save(*learner) << "\n";
  }

  const std::string out_path = args.get_string("out", "");
  if (!out_path.empty()) {
    std::ostringstream bytes(std::ios::binary);
    core::save_online_checkpoint(bytes, *learner);
    util::atomic_write_file(out_path, bytes.str());
    std::cout << "stream state written to " << out_path << "\n";
  }
  if (telemetry) {
    emit_telemetry(args);
  }
  return 0;
}

int cmd_serve(const util::Args& args) {
  if (!args.has("csv")) {
    std::cerr << "serve: --csv is required\n";
    return 1;
  }
  const bool telemetry = setup_telemetry(args);
  const data::Dataset dataset = load(args);

  core::OnlineConfig cfg;
  cfg.reghd.models = static_cast<std::size_t>(args.get_int("models", 8));
  cfg.reghd.dim = static_cast<std::size_t>(args.get_int("dim", 4096));
  cfg.reghd.learning_rate = args.get_double("alpha", 0.15);
  cfg.reghd.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  cfg.reghd.threads = 1;  // the shard worker is the parallelism unit
  if (args.get_bool("quantized", false)) {
    cfg.reghd.cluster_mode = core::ClusterMode::kQuantized;
  }
  cfg.decay = args.get_double("decay", 1.0);
  cfg.requantize_every = static_cast<std::size_t>(args.get_int("requantize-every", 256));
  cfg.encoder.projection_storage =
      hdc::projection_storage_from_string(args.get_string("projection-storage", "resident"));

  serve::ServeConfig sc;
  sc.shards = static_cast<std::size_t>(args.get_int("shards", 1));
  sc.batch_threshold = static_cast<std::size_t>(args.get_int("batch-threshold", 4));
  sc.max_batch = static_cast<std::size_t>(args.get_int("max-batch", 64));
  sc.publish_interval_ms = args.get_double("publish-interval-ms", 50.0);
  sc.checkpoint_dir = args.get_string("checkpoint-dir", "");
  const auto tenant_budget =
      static_cast<std::size_t>(args.get_int("tenant-budget", 0));
  const auto tenant_space =
      static_cast<std::uint64_t>(args.get_int("tenants", 64));
  if (tenant_budget > 0) {
    serve::TenantStoreConfig tc;
    tc.resident_budget = tenant_budget;
    tc.spill_dir = args.get_string("tenant-spill-dir", "");
    sc.tenant = tc;
  }

  const auto train_every = static_cast<std::size_t>(args.get_int("train-every", 1));
  serve::Server server(sc, cfg, dataset.num_features());
  server.start();

  // CSV replay: row i is a predict request keyed by its index (so multi-shard
  // runs spread rows across workers), and every train-every-th row also feeds
  // the shard trainer. Prequential flavor: the prediction is scored against
  // the label before that label can possibly train the row's shard.
  double abs_err = 0.0;
  double sq_err = 0.0;
  std::uint64_t trained = 0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    // In tenant mode the key names a tenant (i mod --tenants) and routes to
    // that tenant's own model; otherwise it is just the load-spreading hash.
    const std::uint64_t key = tenant_budget > 0 ? i % tenant_space : i;
    const double y = dataset.target(i);
    const double pred = server.predict(key, dataset.row(i));
    abs_err += std::abs(pred - y);
    sq_err += (pred - y) * (pred - y);
    if (train_every > 0 && i % train_every == 0) {
      while (!server.try_train(key, dataset.row(i), y)) {
        std::this_thread::yield();  // train ring full: let the trainer drain
      }
      ++trained;
    }
  }
  server.stop();  // drains both rings; with --checkpoint-dir, persists shards

  const double n = static_cast<double>(dataset.size());
  std::cout << "served " << dataset.size() << " rows across " << sc.shards
            << " shard(s): prequential mae=" << abs_err / n << " mse=" << sq_err / n
            << "\n";
  std::uint64_t applied = 0;
  for (std::size_t s = 0; s < sc.shards; ++s) {
    applied += server.train_applied(s);
    if (tenant_budget > 0) {
      const serve::TenantStoreStats ts = server.tenant_stats(s);
      std::cout << "shard " << s << ": " << ts.resident << " resident tenants, "
                << ts.activations << " activations, " << ts.evictions
                << " evictions, " << ts.reactivations << " reactivations\n";
    } else {
      const std::shared_ptr<const serve::ModelSnapshot> snap = server.snapshot(s);
      std::cout << "shard " << s << ": snapshot epoch " << (snap ? snap->epoch : 0)
                << ", trained updates " << (snap ? snap->trained_updates : 0) << "\n";
    }
  }
  std::cout << "train: " << trained << " submitted, " << applied << " applied\n";
  if (telemetry) {
    emit_telemetry(args);
  }
  return 0;
}

int cmd_info(const util::Args& args) {
  if (!args.has("model")) {
    std::cerr << "info: --model is required\n";
    return 1;
  }
  const core::RegHDPipeline pipeline =
      core::load_pipeline_file(args.get_string("model", ""));
  const core::PipelineConfig& cfg = pipeline.config();
  util::Table table({"field", "value"});
  table.add_row({"name", pipeline.name()});
  table.add_row({"dimensionality D", std::to_string(cfg.reghd.dim)});
  table.add_row({"models k", std::to_string(cfg.reghd.models)});
  table.add_row({"encoder", hdc::to_string(cfg.encoder.kind)});
  table.add_row({"input features", std::to_string(cfg.encoder.input_dim)});
  table.add_row({"cluster mode", core::to_string(cfg.reghd.cluster_mode)});
  table.add_row({"prediction mode", cfg.reghd.prediction_mode().to_string()});
  table.add_row({"update rule", core::to_string(cfg.reghd.update_rule)});
  table.add_row({"learning rate", util::Table::cell(cfg.reghd.learning_rate, 3)});
  table.add_row({"model sparsity",
                 util::Table::cell_percent(100.0 * pipeline.regressor().model_sparsity())});
  std::cout << table;
  return 0;
}

int cmd_synth(const util::Args& args) {
  const std::string out_path = args.get_string("out", "");
  const std::string name = args.get_string("dataset", "");
  if (name.empty() || out_path.empty()) {
    std::cerr << "synth: --dataset and --out are required; datasets:";
    for (const auto& n : data::paper_dataset_names()) {
      std::cerr << ' ' << n;
    }
    std::cerr << "\n";
    return 1;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const data::Dataset dataset = data::make_paper_dataset(name, seed);
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "synth: cannot open " << out_path << " for writing\n";
    return 2;
  }
  data::save_csv(out, dataset);
  std::cout << "wrote " << dataset.size() << " samples x " << dataset.num_features()
            << " features to " << out_path << "\n";
  return 0;
}

/// A subcommand and every option it reads. Any other option is a usage
/// error: a mistyped or unsupported flag must not silently leave a default
/// in place.
struct Command {
  std::string_view name;
  int (*run)(const util::Args&);
  std::vector<std::string_view> options;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"train", cmd_train,
       {"csv", "out", "models", "dim", "alpha", "seed", "threads", "batch", "quantized",
        "binary-query", "binary-model", "projection-storage", "test-fraction", "shards",
        "refine-epochs", "checkpoint-dir", "checkpoint-every", "keep-last", "target-col",
        "stats", "telemetry-json", "telemetry-prom"}},
      {"eval", cmd_eval, {"csv", "model", "threads", "target-col"}},
      {"predict", cmd_predict, {"csv", "model", "threads", "target-col"}},
      {"stream", cmd_stream,
       {"csv", "models", "dim", "alpha", "seed", "threads", "quantized", "decay",
        "requantize-every", "projection-storage", "checkpoint-dir", "checkpoint-every",
        "keep-last", "resume", "out", "target-col", "stats", "telemetry-json",
        "telemetry-prom"}},
      {"serve", cmd_serve,
       {"csv", "models", "dim", "alpha", "seed", "quantized", "decay", "requantize-every",
        "projection-storage", "shards", "batch-threshold", "max-batch",
        "publish-interval-ms", "checkpoint-dir", "tenant-budget", "tenants",
        "tenant-spill-dir", "train-every", "target-col", "stats", "telemetry-json",
        "telemetry-prom"}},
      {"info", cmd_info, {"model"}},
      {"synth", cmd_synth, {"dataset", "out", "seed"}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.positional().empty()) {
    return usage(args.program());
  }
  const std::string& command = args.positional().front();
  const auto it = std::ranges::find(commands(), command, &Command::name);
  if (it == commands().end()) {
    std::cerr << "unknown command '" << command << "'\n";
    return usage(args.program());
  }
  if (const std::optional<std::string> unknown = args.first_unknown(it->options)) {
    std::cerr << command << ": unknown option --" << *unknown << "\n";
    return usage(args.program());
  }
  try {
    return it->run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
