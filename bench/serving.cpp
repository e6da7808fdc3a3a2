// Serving-runtime benchmark: tail latency and throughput of the shard-per-
// core server (serve/server.hpp) under Zipf-skewed load, emitted as
// BENCH_serving.json.
//
// Phases:
//   service_capacity  per-row cost of the two admission paths measured on
//                     the core APIs directly (fused predict_reusing vs
//                     standardize → arena encode → bank scan) — the
//                     scheduler-free upper bound on the batching win.
//   saturation        closed-loop throughput through the server: admission
//                     batching enabled (batch_threshold 4) vs forced
//                     single-query (threshold ∞), same shard count. The
//                     ratio is the headline "admission batcher ≥ 4×" check.
//   latency_curve     open-loop p50/p95/p99 vs offered load at fractions of
//                     the saturated rate, with the per-stage breakdown
//                     (queue wait / batch assembly / encode / bank scan)
//                     and the admission batch-size occupancy histogram from
//                     the obs/ stage timers.
//   publish_storm     the trainer publishing snapshots at 10 Hz under load:
//                     steady-state p99 without publishes vs p99 with the
//                     full train+publish pipeline active, plus publish →
//                     swap staleness. Target: storm p99 ≤ 2× steady p99.
//   no_alloc          global operator new is replaced in this TU and armed
//                     through serve/alloc_probe.hpp: any allocation inside
//                     the worker's drained-work section (either path) is
//                     counted. Target: zero.
//
// Latency methodology: open-loop arrivals follow an absolute schedule
// (bench_common OpenLoopPacer) and every latency is completion − scheduled
// time, so queries that queue behind a stall keep their full wait —
// coordinated-omission-safe (the recorder stores exact samples, no bucket
// error in the tail).
//
// Flags: --quick (CI-sized runs) --json PATH --dim D --features F
//        --models K --shards S --seed N
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/encoded.hpp"
#include "core/multi_model.hpp"
#include "core/online.hpp"
#include "data/synthetic.hpp"
#include "obs/telemetry.hpp"
#include "serve/alloc_probe.hpp"
#include "serve/server.hpp"
#include "util/args.hpp"

namespace {

// --- no-alloc accounting: every allocation made while the serving worker is
// inside its drained-work section (flag set via the alloc probe) counts.
thread_local bool tls_in_predict_path = false;
std::atomic<std::uint64_t> g_predict_path_allocs{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (tls_in_predict_path) {
    g_predict_path_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (align > alignof(std::max_align_t)) {
    const std::size_t rounded = (size + align - 1) / align * align;
    p = std::aligned_alloc(align, rounded);
  } else {
    p = std::malloc(size == 0 ? 1 : size);
  }
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace reghd;

std::uint64_t now_ns() { return bench::OpenLoopPacer::now_ns(); }

struct BenchSetup {
  bool quick = false;
  std::string json_path = "BENCH_serving.json";
  std::size_t dim = 2048;
  // 32-feature readings: wide enough that the per-row projection (∝ F·D)
  // dominates the fused path while the batch GEMM shares each weight tile
  // across the admission group — the regime the admission batcher targets.
  std::size_t features = 32;
  std::size_t models = 4;
  std::size_t shards = 1;
  std::uint64_t seed = 17;
  std::size_t keys = 1024;
  double zipf_s = 1.1;
  bool resident = false;
};

core::OnlineConfig online_config(const BenchSetup& s) {
  core::OnlineConfig cfg;
  cfg.reghd.dim = s.dim;
  cfg.reghd.models = s.models;
  cfg.reghd.seed = s.seed;
  cfg.reghd.threads = 1;  // the shard worker is the parallelism unit
  cfg.requantize_every = 256;
  // The serving deployment configuration: no resident F×D projection
  // matrix per model. At this shape (512 KiB) each shard worker regenerates
  // the projection once and keeps that copy; over the per-thread budget a
  // lone query would pay the full rematerialization while an admission
  // batch regenerates each tile once for the whole group (--resident
  // measures the materialized-matrix regime instead).
  if (!s.resident) {
    cfg.encoder.projection_storage = hdc::ProjectionStorage::kRematerialized;
  }
  return cfg;
}

serve::ServeConfig serve_config(const BenchSetup& s, std::size_t batch_threshold) {
  serve::ServeConfig cfg;
  cfg.shards = s.shards;
  cfg.batch_threshold = batch_threshold;
  // 128-row admission groups share each projection tile across more rows
  // than the server's conservative 64-row default.
  cfg.max_batch = 128;
  cfg.publish_interval_ms = 0.0;  // phases opt into publishing explicitly
  cfg.publish_every_updates = std::size_t{1} << 30;
  return cfg;
}

core::OnlineRegHD pretrained(const BenchSetup& s, const data::Dataset& pool) {
  core::OnlineRegHD learner(online_config(s), pool.num_features());
  for (std::size_t i = 0; i < 1024; ++i) {
    const std::size_t r = i % pool.size();
    learner.update(pool.row(r), pool.target(r));
  }
  return learner;
}

struct DriveStats {
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  double seconds = 0.0;

  [[nodiscard]] double qps() const {
    return seconds > 0.0 ? static_cast<double>(completed) / seconds : 0.0;
  }
};

/// Closed loop: keep `inflight` requests outstanding, completing the oldest
/// to free a slot. Measures service capacity (what the server can absorb).
DriveStats run_closed_loop(serve::Server& server, const data::Dataset& pool,
                           bench::ZipfSampler& keys, std::size_t inflight,
                           double seconds) {
  std::vector<serve::RequestSlot> slots(inflight);
  std::deque<std::size_t> outstanding;
  std::vector<std::size_t> free_slots;
  for (std::size_t i = 0; i < inflight; ++i) {
    free_slots.push_back(i);
  }
  DriveStats stats;
  const std::uint64_t t0 = now_ns();
  const auto deadline =
      t0 + static_cast<std::uint64_t>(seconds * 1e9);
  for (;;) {
    const bool closing = now_ns() >= deadline;
    if (!closing && !free_slots.empty()) {
      const std::size_t s = free_slots.back();
      free_slots.pop_back();
      const std::uint64_t key = keys.next();
      slots[s].reset();
      while (!server.try_predict(key, pool.row(key % pool.size()), &slots[s])) {
        // full ring = backpressure; spin until admitted
      }
      outstanding.push_back(s);
      continue;
    }
    if (outstanding.empty()) {
      break;  // closing and fully drained
    }
    const std::size_t s = outstanding.front();
    outstanding.pop_front();
    slots[s].wait();
    ++stats.completed;
    stats.errors += slots[s].error != 0 ? 1 : 0;
    free_slots.push_back(s);
  }
  stats.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return stats;
}

struct OpenLoopResult {
  bench::LatencyRecorder latency;
  DriveStats stats;
};

/// Open loop: arrivals on the pacer's absolute schedule; when the slot pool
/// is exhausted the driver blocks on the oldest request, but latencies are
/// still measured from each arrival's *scheduled* time (CO-safe). Every
/// `train_every`-th arrival additionally submits one fire-and-forget
/// training sample (0 disables training traffic).
OpenLoopResult run_open_loop(serve::Server& server, const data::Dataset& pool,
                             bench::ZipfSampler& keys, double rate_per_sec,
                             double seconds, std::uint64_t train_every) {
  constexpr std::size_t kSlotPool = 8192;
  std::vector<serve::RequestSlot> slots(kSlotPool);
  std::vector<std::uint64_t> scheduled(kSlotPool, 0);
  std::deque<std::size_t> outstanding;
  std::vector<std::size_t> free_slots;
  for (std::size_t i = 0; i < kSlotPool; ++i) {
    free_slots.push_back(i);
  }
  OpenLoopResult result;
  const std::uint64_t t0 = now_ns();
  const bench::OpenLoopPacer pacer(rate_per_sec, t0);
  const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);

  const auto complete = [&](std::size_t s) {
    const std::uint64_t done = slots[s].done_ns.load(std::memory_order_acquire);
    result.latency.record_ns(done > scheduled[s] ? done - scheduled[s] : 0);
    result.stats.errors += slots[s].error != 0 ? 1 : 0;
    ++result.stats.completed;
    free_slots.push_back(s);
  };

  for (std::uint64_t i = 0;; ++i) {
    const std::uint64_t sched = pacer.scheduled_ns(i);
    if (sched >= deadline) {
      break;
    }
    bench::OpenLoopPacer::wait_until(sched);
    while (!outstanding.empty() && slots[outstanding.front()].ready()) {
      complete(outstanding.front());
      outstanding.pop_front();
    }
    if (free_slots.empty()) {
      const std::size_t s = outstanding.front();
      outstanding.pop_front();
      slots[s].wait();
      complete(s);
    }
    const std::size_t s = free_slots.back();
    free_slots.pop_back();
    const std::uint64_t key = keys.next();
    slots[s].reset();
    scheduled[s] = sched;
    while (!server.try_predict(key, pool.row(key % pool.size()), &slots[s])) {
    }
    outstanding.push_back(s);
    if (train_every != 0 && i % train_every == 0) {
      const std::uint64_t tk = keys.next();
      (void)server.try_train(tk, pool.row(tk % pool.size()),
                             pool.target(tk % pool.size()));
    }
  }
  while (!outstanding.empty()) {
    const std::size_t s = outstanding.front();
    outstanding.pop_front();
    slots[s].wait();
    complete(s);
  }
  result.stats.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return result;
}

bench::JsonValue histo_json(const obs::HistogramSnapshot& h) {
  bench::JsonValue j = bench::JsonValue::object();
  j["count"] = bench::JsonValue::integer(static_cast<std::int64_t>(h.count));
  j["mean_ns"] = bench::JsonValue::number(h.mean_ns());
  j["p50_ns"] = bench::JsonValue::number(h.p50_ns());
  j["p95_ns"] = bench::JsonValue::number(h.p95_ns());
  j["p99_ns"] = bench::JsonValue::number(h.p99_ns());
  return j;
}

/// The admission batch-size occupancy histogram: power-of-two upper edges
/// (the obs bucket layout), only non-empty buckets emitted.
bench::JsonValue batch_fill_json(const obs::HistogramSnapshot& h) {
  bench::JsonValue j = bench::JsonValue::object();
  j["mean_rows"] = bench::JsonValue::number(h.mean_ns());  // unitless histo
  bench::JsonValue buckets = bench::JsonValue::object();
  for (std::size_t b = 0; b < obs::kHistoBuckets; ++b) {
    if (h.buckets[b] == 0) {
      continue;
    }
    const std::uint64_t upper = b == 0 ? 0 : (std::uint64_t{1} << b);
    buckets["le_" + std::to_string(upper)] =
        bench::JsonValue::integer(static_cast<std::int64_t>(h.buckets[b]));
  }
  j["rows_histogram"] = buckets;
  return j;
}

bench::JsonValue stage_breakdown_json(const obs::TelemetrySnapshot& snap) {
  bench::JsonValue stages = bench::JsonValue::object();
  stages["queue_wait"] = histo_json(snap.histogram(obs::Histo::kServeQueueWaitNs));
  stages["assemble"] = histo_json(snap.histogram(obs::Histo::kServeAssembleNs));
  stages["encode"] = histo_json(snap.histogram(obs::Histo::kServeEncodeNs));
  stages["bank_scan"] = histo_json(snap.histogram(obs::Histo::kServeScanNs));
  stages["e2e_worker"] = histo_json(snap.histogram(obs::Histo::kServePredictNs));
  return stages;
}

bench::JsonValue latency_json(const bench::LatencyRecorder& lat) {
  return lat.summary();
}

int run(const util::Args& args) {
  BenchSetup setup;
  setup.quick = args.get_bool("quick", false);
  setup.json_path = args.get_string("json", "BENCH_serving.json");
  setup.dim = static_cast<std::size_t>(args.get_int("dim", 2048));
  setup.features = static_cast<std::size_t>(args.get_int("features", 32));
  setup.models = static_cast<std::size_t>(args.get_int("models", 4));
  setup.shards = static_cast<std::size_t>(args.get_int("shards", 1));
  setup.seed = static_cast<std::uint64_t>(args.get_int("seed", 17));
  setup.resident = args.get_bool("resident", false);

  const double measure_s = setup.quick ? 0.4 : 1.5;
  const double warmup_s = setup.quick ? 0.1 : 0.3;

  bench::print_header(
      "serving",
      "Shard-per-core serving runtime: admission-batched bank scan vs fused\n"
      "single-query path, open-loop tail latency, snapshot publish storms,\n"
      "and the predict-path no-allocation check.");

  // multimodal_task honors the requested feature width (friedman1 is fixed
  // at 10 features); the regime structure also gives the k models distinct
  // clusters to specialize on, like the paper's Fig. 3b task.
  const data::Dataset pool =
      data::make_multimodal_task(2048, setup.features, setup.models, setup.seed);
  const core::OnlineRegHD learner = pretrained(setup, pool);
  obs::set_enabled(true);

  bench::JsonValue root = bench::JsonValue::object();
  root["bench"] = bench::JsonValue::string("serving");
  {
    bench::JsonValue host = bench::JsonValue::object();
    host["hardware_concurrency"] = bench::JsonValue::integer(
        static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    const char* threads_env = std::getenv("REGHD_THREADS");
    host["reghd_threads_env"] =
        bench::JsonValue::string(threads_env != nullptr ? threads_env : "");
    host["quick"] = bench::JsonValue::boolean(setup.quick);
    root["host"] = host;
  }
  {
    bench::JsonValue cfg = bench::JsonValue::object();
    cfg["dim"] = bench::JsonValue::integer(static_cast<std::int64_t>(setup.dim));
    cfg["features"] =
        bench::JsonValue::integer(static_cast<std::int64_t>(setup.features));
    cfg["models"] =
        bench::JsonValue::integer(static_cast<std::int64_t>(setup.models));
    cfg["shards"] =
        bench::JsonValue::integer(static_cast<std::int64_t>(setup.shards));
    cfg["keys"] = bench::JsonValue::integer(static_cast<std::int64_t>(setup.keys));
    cfg["zipf_s"] = bench::JsonValue::number(setup.zipf_s);
    cfg["max_batch"] = bench::JsonValue::integer(128);
    cfg["projection_storage"] = bench::JsonValue::string(
        setup.resident ? "resident" : "rematerialized");
    root["config"] = cfg;
  }

  // --- Phase: service_capacity (core paths, no server in the loop) -------
  {
    constexpr std::size_t kBatch = 64;
    const std::size_t nf = pool.num_features();
    std::vector<double> raw(kBatch * nf);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto row = pool.row(i % pool.size());
      std::copy(row.begin(), row.end(), raw.begin() + i * nf);
    }
    std::vector<double> scaled(kBatch * nf);
    std::vector<double> out(kBatch);
    std::vector<double> single_scratch(nf);
    core::EncodedDataset arena;
    core::MultiModelRegressor::PredictScratch scratch;
    learner.model().prepare_predict_scratch(scratch);

    const auto budget_ns =
        static_cast<std::uint64_t>((setup.quick ? 0.1 : 0.3) * 1e9);
    const auto time_reps = [&](auto&& body) {
      // One untimed rep warms lazily-sized buffers out of the measurement.
      body();
      std::uint64_t reps = 0;
      const std::uint64_t t0 = now_ns();
      while (now_ns() - t0 < budget_ns) {
        body();
        ++reps;
      }
      return static_cast<double>(now_ns() - t0) / static_cast<double>(reps);
    };

    const double single_batch_ns = time_reps([&] {
      for (std::size_t i = 0; i < kBatch; ++i) {
        out[i] = learner.predict_reusing({raw.data() + i * nf, nf}, single_scratch);
      }
    });
    const double batched_batch_ns = time_reps([&] {
      learner.standardize_rows_into({raw.data(), kBatch * nf}, kBatch,
                                    {scaled.data(), kBatch * nf});
      arena.assign_rows(learner.encoder(), {scaled.data(), kBatch * nf}, kBatch, 1);
      learner.model().predict_batch_into(arena, {out.data(), kBatch}, scratch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        out[i] = learner.unscale(out[i]);
      }
    });
    const double single_row_ns = single_batch_ns / kBatch;
    const double batched_row_ns = batched_batch_ns / kBatch;
    std::cout << "service capacity (batch " << kBatch << "): fused "
              << single_row_ns / 1e3 << " us/row, bank scan "
              << batched_row_ns / 1e3 << " us/row  ("
              << single_row_ns / batched_row_ns << "x)\n";
    bench::JsonValue j = bench::JsonValue::object();
    j["batch_rows"] = bench::JsonValue::integer(kBatch);
    j["single_ns_per_row"] = bench::JsonValue::number(single_row_ns);
    j["batched_ns_per_row"] = bench::JsonValue::number(batched_row_ns);
    j["core_path_speedup"] = bench::JsonValue::number(single_row_ns / batched_row_ns);
    root["service_capacity"] = j;
  }

  // --- Phase: saturation (closed loop through the server) ----------------
  double saturated_qps = 0.0;
  {
    constexpr std::size_t kInflight = 256;
    double batched_qps = 0.0;
    double single_qps = 0.0;
    for (const bool batched : {true, false}) {
      serve::Server server(
          serve_config(setup, batched ? 4 : std::numeric_limits<std::size_t>::max()),
          online_config(setup), pool.num_features());
      for (std::size_t s = 0; s < setup.shards; ++s) {
        server.bootstrap(s, learner);
      }
      server.start();
      bench::ZipfSampler keys(setup.keys, setup.zipf_s, setup.seed);
      (void)run_closed_loop(server, pool, keys, kInflight, warmup_s);
      const DriveStats stats =
          run_closed_loop(server, pool, keys, kInflight, measure_s);
      server.stop();
      (batched ? batched_qps : single_qps) = stats.qps();
      std::cout << "saturation " << (batched ? "batched" : "single-forced")
                << ": " << stats.qps() << " qps (" << stats.completed
                << " requests, " << stats.errors << " errors)\n";
    }
    saturated_qps = batched_qps;
    const double ratio = single_qps > 0.0 ? batched_qps / single_qps : 0.0;
    std::cout << "admission batching speedup at saturation: " << ratio << "x\n";
    bench::JsonValue j = bench::JsonValue::object();
    j["inflight"] = bench::JsonValue::integer(kInflight);
    j["batched_qps"] = bench::JsonValue::number(batched_qps);
    j["single_forced_qps"] = bench::JsonValue::number(single_qps);
    j["batched_over_single"] = bench::JsonValue::number(ratio);
    j["meets_4x_target"] = bench::JsonValue::boolean(ratio >= 4.0);
    root["saturation"] = j;
  }

  // --- Phase: latency curve (open loop at fractions of saturation) -------
  {
    serve::Server server(serve_config(setup, 4), online_config(setup),
                         pool.num_features());
    for (std::size_t s = 0; s < setup.shards; ++s) {
      server.bootstrap(s, learner);
    }
    server.start();
    bench::JsonValue curve = bench::JsonValue::object();
    const std::vector<double> fractions =
        setup.quick ? std::vector<double>{0.5}
                    : std::vector<double>{0.2, 0.5, 0.8};
    for (const double f : fractions) {
      const double rate = saturated_qps * f;
      bench::ZipfSampler keys(setup.keys, setup.zipf_s, setup.seed + 1);
      (void)run_open_loop(server, pool, keys, rate, warmup_s, 0);
      obs::reset();
      const OpenLoopResult r = run_open_loop(server, pool, keys, rate, measure_s, 0);
      const obs::TelemetrySnapshot snap = obs::snapshot();
      std::cout << "offered " << rate << " qps (" << f * 100 << "% of sat): p50 "
                << r.latency.percentile_ns(50) / 1e3 << " us, p99 "
                << r.latency.percentile_ns(99) / 1e3 << " us, errors "
                << r.stats.errors << "\n";
      bench::JsonValue point = bench::JsonValue::object();
      point["offered_qps"] = bench::JsonValue::number(rate);
      point["achieved_qps"] = bench::JsonValue::number(r.stats.qps());
      point["errors"] = bench::JsonValue::integer(
          static_cast<std::int64_t>(r.stats.errors));
      point["latency"] = latency_json(r.latency);
      point["stages"] = stage_breakdown_json(snap);
      point["batch_fill"] =
          batch_fill_json(snap.histogram(obs::Histo::kServeBatchFill));
      bench::JsonValue paths = bench::JsonValue::object();
      paths["batches"] = bench::JsonValue::integer(
          static_cast<std::int64_t>(snap.counter(obs::Counter::kServeBatches)));
      paths["batched_rows"] = bench::JsonValue::integer(
          static_cast<std::int64_t>(snap.counter(obs::Counter::kServeBatchRows)));
      paths["single_rows"] = bench::JsonValue::integer(
          static_cast<std::int64_t>(snap.counter(obs::Counter::kServeSingleRows)));
      point["paths"] = paths;
      curve["load_" + std::to_string(static_cast<int>(f * 100)) + "pct"] = point;
    }
    server.stop();
    root["latency_curve"] = curve;
  }

  // --- Phase: publish storm (trainer at 10 Hz under load) ----------------
  // Both runs carry identical predict + train traffic; the only difference
  // is whether the trainer publishes snapshots (10 Hz) or holds them back —
  // the p99 delta isolates the cost of publish + hot-swap, not of training.
  {
    const double rate = saturated_qps * 0.4;
    const double storm_s = setup.quick ? 0.6 : 2.0;
    constexpr std::uint64_t kTrainEvery = 8;
    double steady_p99 = 0.0;
    double storm_p99 = 0.0;
    bench::JsonValue j = bench::JsonValue::object();
    for (const bool storm : {false, true}) {
      serve::ServeConfig sc = serve_config(setup, 4);
      if (storm) {
        sc.publish_interval_ms = 100.0;  // 10 Hz whenever updates are pending
      }
      serve::Server server(sc, online_config(setup), pool.num_features());
      for (std::size_t s = 0; s < setup.shards; ++s) {
        server.bootstrap(s, learner);
      }
      server.start();
      bench::ZipfSampler keys(setup.keys, setup.zipf_s, setup.seed + 2);
      const std::uint64_t train_every = kTrainEvery;
      (void)run_open_loop(server, pool, keys, rate, warmup_s, train_every);
      obs::reset();
      const OpenLoopResult r =
          run_open_loop(server, pool, keys, rate, storm_s, train_every);
      const obs::TelemetrySnapshot snap = obs::snapshot();
      server.stop();
      const double p99 = r.latency.percentile_ns(99);
      (storm ? storm_p99 : steady_p99) = p99;
      std::cout << (storm ? "publish storm" : "steady state") << " @ " << rate
                << " qps: p99 " << p99 / 1e3 << " us\n";
      if (storm) {
        j["publishes"] = bench::JsonValue::integer(static_cast<std::int64_t>(
            snap.counter(obs::Counter::kServeSnapshotPublishes)));
        j["swaps"] = bench::JsonValue::integer(static_cast<std::int64_t>(
            snap.counter(obs::Counter::kServeSnapshotSwaps)));
        j["train_applied"] = bench::JsonValue::integer(static_cast<std::int64_t>(
            snap.counter(obs::Counter::kServeTrainApplied)));
        j["staleness"] = histo_json(snap.histogram(obs::Histo::kServeStalenessNs));
        j["publish"] = histo_json(snap.histogram(obs::Histo::kServePublishNs));
      }
    }
    const double ratio = steady_p99 > 0.0 ? storm_p99 / steady_p99 : 0.0;
    std::cout << "publish-storm p99 inflation: " << ratio << "x\n";
    j["offered_qps"] = bench::JsonValue::number(rate);
    j["steady_p99_ns"] = bench::JsonValue::number(steady_p99);
    j["storm_p99_ns"] = bench::JsonValue::number(storm_p99);
    j["storm_over_steady"] = bench::JsonValue::number(ratio);
    j["meets_2x_target"] = bench::JsonValue::boolean(ratio <= 2.0);
    root["publish_storm"] = j;
  }

  // --- Phase: no_alloc (probe-armed traffic through both paths) ----------
  {
    serve::Server server(serve_config(setup, 4), online_config(setup),
                         pool.num_features());
    for (std::size_t s = 0; s < setup.shards; ++s) {
      server.bootstrap(s, learner);
    }
    server.start();
    bench::ZipfSampler keys(setup.keys, setup.zipf_s, setup.seed + 3);
    // Warm every buffer to steady state before arming, then count.
    (void)run_closed_loop(server, pool, keys, 64, warmup_s);
    (void)run_closed_loop(server, pool, keys, 1, warmup_s);
    g_predict_path_allocs.store(0, std::memory_order_relaxed);
    serve::set_predict_path_probe(
        +[](bool entering) { tls_in_predict_path = entering; });
    const DriveStats batch_stats =
        run_closed_loop(server, pool, keys, 64, setup.quick ? 0.2 : 0.5);
    const DriveStats single_stats =
        run_closed_loop(server, pool, keys, 1, setup.quick ? 0.2 : 0.5);
    serve::set_predict_path_probe(nullptr);
    server.stop();
    const std::uint64_t allocs =
        g_predict_path_allocs.load(std::memory_order_relaxed);
    std::cout << "no-alloc check: " << allocs << " allocations across "
              << batch_stats.completed + single_stats.completed
              << " probed requests (both paths)\n";
    bench::JsonValue j = bench::JsonValue::object();
    j["probed_requests"] = bench::JsonValue::integer(
        static_cast<std::int64_t>(batch_stats.completed + single_stats.completed));
    j["predict_path_allocs"] =
        bench::JsonValue::integer(static_cast<std::int64_t>(allocs));
    j["clean"] = bench::JsonValue::boolean(allocs == 0);
    root["no_alloc"] = j;
  }

  obs::set_enabled(false);
  return bench::write_json_file(setup.json_path, root) ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "serving bench error: " << e.what() << "\n";
    return 2;
  }
}
