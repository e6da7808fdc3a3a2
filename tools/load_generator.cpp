// load_generator — drives a live serving runtime (serve/server.hpp) with
// Zipf-skewed tenant/key traffic and reports client-observed latency.
//
//   load_generator [--shards N] [--rate QPS] [--concurrency C]
//                  [--duration-s S] [--features F] [--dim D] [--models K]
//                  [--keys N] [--zipf-s S] [--train-every N] [--pretrain N]
//                  [--batch-threshold N] [--max-batch N]
//                  [--publish-interval-ms X] [--checkpoint-dir P]
//                  [--quantized] [--seed S]
//                  [--tenants N] [--resident-budget N] [--tenant-spill-dir P]
//                  [--json PATH] [--assert-p99-ms X] [--assert-zero-errors]
//
// Any other option exits 1 naming it, before a server starts.
//
// Two driver modes:
//   --rate 0  (default) closed loop: keep --concurrency requests in flight;
//             latency is measured submit → completion. Measures capacity.
//   --rate R  open loop: arrivals on an absolute schedule at R requests/s
//             (bench_common OpenLoopPacer); latency is measured *scheduled*
//             arrival → completion, so stalls keep their full wait —
//             coordinated-omission-safe. Measures tail latency at load.
//
// --train-every N interleaves one fire-and-forget online training sample
// every N requests, exercising the trainer + snapshot-publish pipeline under
// the same load. The workload is the synthetic friedman1 stream (keys map to
// rows); the server is pre-trained with --pretrain updates before traffic.
//
// --tenants N switches the server into tenant mode: every key is a tenant id
// drawn Zipf-skewed from {0..N-1}, each owning its own model in a per-shard
// TenantStore bounded to --resident-budget resident tenants (LRU eviction
// through the checkpoint spiller). There is no pretrained bootstrap in this
// mode — tenants learn from the interleaved --train-every traffic — and the
// run reports activation/eviction/hit-rate stats alongside latency.
//
// --assert-p99-ms / --assert-zero-errors turn the run into a pass/fail gate
// (CI serving smoke): exit 1 when violated, 0 otherwise.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/online.hpp"
#include "data/synthetic.hpp"
#include "obs/telemetry.hpp"
#include "serve/server.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using namespace reghd;

struct RunResult {
  bench::LatencyRecorder latency;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t trained = 0;
  double seconds = 0.0;
};

std::uint64_t now_ns() { return bench::OpenLoopPacer::now_ns(); }

/// Closed loop: a full window of in-flight requests, oldest-first harvest.
RunResult drive_closed(serve::Server& server, const data::Dataset& pool,
                       bench::ZipfSampler& keys, std::size_t concurrency,
                       double seconds, std::uint64_t train_every) {
  std::vector<serve::RequestSlot> slots(concurrency);
  std::vector<std::uint64_t> submit_ns(concurrency, 0);
  std::deque<std::size_t> outstanding;
  std::vector<std::size_t> free_slots;
  for (std::size_t i = 0; i < concurrency; ++i) {
    free_slots.push_back(i);
  }
  RunResult r;
  std::uint64_t submitted = 0;
  const std::uint64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  for (;;) {
    const bool closing = now_ns() >= deadline;
    if (!closing && !free_slots.empty()) {
      const std::size_t s = free_slots.back();
      free_slots.pop_back();
      const std::uint64_t key = keys.next();
      slots[s].reset();
      submit_ns[s] = now_ns();
      while (!server.try_predict(key, pool.row(key % pool.size()), &slots[s])) {
      }
      outstanding.push_back(s);
      if (train_every != 0 && submitted % train_every == 0) {
        const std::uint64_t tk = keys.next();
        r.trained += server.try_train(tk, pool.row(tk % pool.size()),
                                      pool.target(tk % pool.size()))
                         ? 1
                         : 0;
      }
      ++submitted;
      continue;
    }
    if (outstanding.empty()) {
      break;
    }
    const std::size_t s = outstanding.front();
    outstanding.pop_front();
    slots[s].wait();
    const std::uint64_t done = slots[s].done_ns.load(std::memory_order_acquire);
    r.latency.record_ns(done > submit_ns[s] ? done - submit_ns[s] : 0);
    r.errors += slots[s].error != 0 ? 1 : 0;
    ++r.completed;
    free_slots.push_back(s);
  }
  r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return r;
}

/// Open loop on the pacer's absolute schedule; latency from scheduled time.
RunResult drive_open(serve::Server& server, const data::Dataset& pool,
                     bench::ZipfSampler& keys, double rate, std::size_t concurrency,
                     double seconds, std::uint64_t train_every) {
  const std::size_t pool_size = std::max<std::size_t>(concurrency, 1024);
  std::vector<serve::RequestSlot> slots(pool_size);
  std::vector<std::uint64_t> scheduled(pool_size, 0);
  std::deque<std::size_t> outstanding;
  std::vector<std::size_t> free_slots;
  for (std::size_t i = 0; i < pool_size; ++i) {
    free_slots.push_back(i);
  }
  RunResult r;
  const std::uint64_t t0 = now_ns();
  const bench::OpenLoopPacer pacer(rate, t0);
  const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  const auto complete = [&](std::size_t s) {
    const std::uint64_t done = slots[s].done_ns.load(std::memory_order_acquire);
    r.latency.record_ns(done > scheduled[s] ? done - scheduled[s] : 0);
    r.errors += slots[s].error != 0 ? 1 : 0;
    ++r.completed;
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
      r.trained += server.try_train(tk, pool.row(tk % pool.size()),
                                    pool.target(tk % pool.size()))
                       ? 1
                       : 0;
    }
  }
  while (!outstanding.empty()) {
    const std::size_t s = outstanding.front();
    outstanding.pop_front();
    slots[s].wait();
    complete(s);
  }
  r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return r;
}

/// Every option run() reads. Any other is a usage error: a misspelt
/// --assert-* flag must not silently turn its gate off.
constexpr std::string_view kOptions[] = {
    "shards", "rate", "concurrency", "duration-s", "features", "dim", "models", "keys",
    "zipf-s", "train-every", "pretrain", "seed", "tenants", "quantized",
    "batch-threshold", "max-batch", "publish-interval-ms", "checkpoint-dir",
    "resident-budget", "tenant-spill-dir", "json", "assert-zero-errors",
    "assert-p99-ms"};

int run(const util::Args& args) {
  const auto shards = static_cast<std::size_t>(args.get_int("shards", 1));
  const double rate = args.get_double("rate", 0.0);
  const auto concurrency = static_cast<std::size_t>(args.get_int("concurrency", 32));
  const double duration_s = args.get_double("duration-s", 10.0);
  const auto features = static_cast<std::size_t>(args.get_int("features", 16));
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 1024));
  const auto models = static_cast<std::size_t>(args.get_int("models", 4));
  const auto num_keys = static_cast<std::size_t>(args.get_int("keys", 1024));
  const double zipf_s = args.get_double("zipf-s", 1.0);
  const auto train_every = static_cast<std::uint64_t>(args.get_int("train-every", 0));
  const auto pretrain = static_cast<std::size_t>(args.get_int("pretrain", 512));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto tenants = static_cast<std::size_t>(args.get_int("tenants", 0));

  core::OnlineConfig online;
  online.reghd.dim = dim;
  online.reghd.models = models;
  online.reghd.seed = seed;
  online.reghd.threads = 1;
  online.requantize_every = 256;
  if (args.get_bool("quantized", false)) {
    online.reghd.cluster_mode = core::ClusterMode::kQuantized;
    online.reghd.query_precision = core::QueryPrecision::kBinary;
    online.reghd.model_precision = core::ModelPrecision::kTernary;
  }

  serve::ServeConfig sc;
  sc.shards = shards;
  sc.batch_threshold = static_cast<std::size_t>(args.get_int("batch-threshold", 4));
  sc.max_batch = static_cast<std::size_t>(args.get_int("max-batch", 64));
  sc.publish_interval_ms = args.get_double("publish-interval-ms", 100.0);
  sc.checkpoint_dir = args.get_string("checkpoint-dir", "");
  if (tenants > 0) {
    serve::TenantStoreConfig tc;
    tc.resident_budget =
        static_cast<std::size_t>(args.get_int("resident-budget", 1024));
    tc.spill_dir = args.get_string("tenant-spill-dir", "");
    sc.tenant = tc;
  }

  const data::Dataset pool = data::make_friedman1(2048, features);
  core::OnlineRegHD learner(online, pool.num_features());
  for (std::size_t i = 0; i < pretrain; ++i) {
    const std::size_t r = i % pool.size();
    learner.update(pool.row(r), pool.target(r));
  }

  obs::set_enabled(true);
  serve::Server server(sc, online, pool.num_features());
  if (tenants == 0) {
    for (std::size_t s = 0; s < shards; ++s) {
      server.bootstrap(s, learner);
    }
  }
  server.start();

  bench::ZipfSampler keys(tenants > 0 ? tenants : num_keys, zipf_s, seed);
  std::cout << "load_generator: " << shards << " shard(s), "
            << (rate > 0.0 ? "open loop @ " + std::to_string(rate) + " qps"
                           : "closed loop x" + std::to_string(concurrency))
            << ", " << duration_s << " s, zipf(" << zipf_s << ") over "
            << (tenants > 0 ? tenants : num_keys)
            << (tenants > 0 ? " tenants\n" : " keys\n");
  const RunResult r =
      rate > 0.0
          ? drive_open(server, pool, keys, rate, concurrency, duration_s, train_every)
          : drive_closed(server, pool, keys, concurrency, duration_s, train_every);
  server.stop();
  serve::TenantStoreStats tstats;
  if (tenants > 0) {
    for (std::size_t s = 0; s < shards; ++s) {
      const serve::TenantStoreStats ss = server.tenant_stats(s);
      tstats.hits += ss.hits;
      tstats.misses += ss.misses;
      tstats.activations += ss.activations;
      tstats.reactivations += ss.reactivations;
      tstats.evictions += ss.evictions;
      tstats.promotions += ss.promotions;
      tstats.spill_discards += ss.spill_discards;
      tstats.resident += ss.resident;
      tstats.spilled += ss.spilled;
      tstats.resident_bytes += ss.resident_bytes;
      tstats.spill_bytes += ss.spill_bytes;
    }
  }
  const obs::TelemetrySnapshot snap = obs::snapshot();
  obs::set_enabled(false);

  const double qps = r.seconds > 0.0 ? static_cast<double>(r.completed) / r.seconds : 0.0;
  util::Table table({"metric", "value"});
  table.add_row({"completed", std::to_string(r.completed)});
  table.add_row({"errors", std::to_string(r.errors)});
  table.add_row({"train submitted", std::to_string(r.trained)});
  table.add_row({"throughput qps", util::Table::cell(qps, 1)});
  table.add_row({"p50 ms", util::Table::cell(r.latency.percentile_ns(50) / 1e6, 3)});
  table.add_row({"p95 ms", util::Table::cell(r.latency.percentile_ns(95) / 1e6, 3)});
  table.add_row({"p99 ms", util::Table::cell(r.latency.percentile_ns(99) / 1e6, 3)});
  table.add_row({"max ms", util::Table::cell(r.latency.max_ns() / 1e6, 3)});
  table.add_row({"queue rejects",
                 std::to_string(snap.counter(obs::Counter::kServeQueueRejects))});
  table.add_row({"batched rows",
                 std::to_string(snap.counter(obs::Counter::kServeBatchRows))});
  table.add_row({"single rows",
                 std::to_string(snap.counter(obs::Counter::kServeSingleRows))});
  table.add_row({"train applied",
                 std::to_string(snap.counter(obs::Counter::kServeTrainApplied))});
  table.add_row({"snapshot publishes",
                 std::to_string(snap.counter(obs::Counter::kServeSnapshotPublishes))});
  table.add_row({"snapshot swaps",
                 std::to_string(snap.counter(obs::Counter::kServeSnapshotSwaps))});
  if (tenants > 0) {
    const double lookups = static_cast<double>(tstats.hits + tstats.misses);
    table.add_row({"tenant hit rate",
                   util::Table::cell(lookups > 0.0
                                         ? static_cast<double>(tstats.hits) / lookups
                                         : 0.0,
                                     4)});
    table.add_row({"tenant activations", std::to_string(tstats.activations)});
    table.add_row({"tenant reactivations", std::to_string(tstats.reactivations)});
    table.add_row({"tenant evictions", std::to_string(tstats.evictions)});
    table.add_row({"tenant resident", std::to_string(tstats.resident)});
    table.add_row({"tenant resident bytes", std::to_string(tstats.resident_bytes)});
  }
  std::cout << table;

  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    bench::JsonValue root = bench::JsonValue::object();
    root["tool"] = bench::JsonValue::string("load_generator");
    root["host_hardware_concurrency"] = bench::JsonValue::integer(
        static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    root["mode"] = bench::JsonValue::string(rate > 0.0 ? "open" : "closed");
    root["offered_qps"] = bench::JsonValue::number(rate);
    root["shards"] = bench::JsonValue::integer(static_cast<std::int64_t>(shards));
    root["duration_s"] = bench::JsonValue::number(r.seconds);
    root["completed"] =
        bench::JsonValue::integer(static_cast<std::int64_t>(r.completed));
    root["errors"] = bench::JsonValue::integer(static_cast<std::int64_t>(r.errors));
    root["achieved_qps"] = bench::JsonValue::number(qps);
    root["latency"] = r.latency.summary();
    bench::JsonValue counters = bench::JsonValue::object();
    counters["queue_rejects"] = bench::JsonValue::integer(
        static_cast<std::int64_t>(snap.counter(obs::Counter::kServeQueueRejects)));
    counters["batched_rows"] = bench::JsonValue::integer(
        static_cast<std::int64_t>(snap.counter(obs::Counter::kServeBatchRows)));
    counters["single_rows"] = bench::JsonValue::integer(
        static_cast<std::int64_t>(snap.counter(obs::Counter::kServeSingleRows)));
    counters["train_applied"] = bench::JsonValue::integer(
        static_cast<std::int64_t>(snap.counter(obs::Counter::kServeTrainApplied)));
    counters["snapshot_publishes"] = bench::JsonValue::integer(
        static_cast<std::int64_t>(
            snap.counter(obs::Counter::kServeSnapshotPublishes)));
    counters["snapshot_swaps"] = bench::JsonValue::integer(
        static_cast<std::int64_t>(snap.counter(obs::Counter::kServeSnapshotSwaps)));
    root["serve_counters"] = counters;
    if (tenants > 0) {
      bench::JsonValue tb = bench::JsonValue::object();
      tb["tenants"] = bench::JsonValue::integer(static_cast<std::int64_t>(tenants));
      tb["resident_budget"] = bench::JsonValue::integer(
          static_cast<std::int64_t>(sc.tenant->resident_budget));
      tb["hits"] = bench::JsonValue::integer(static_cast<std::int64_t>(tstats.hits));
      tb["misses"] =
          bench::JsonValue::integer(static_cast<std::int64_t>(tstats.misses));
      tb["activations"] =
          bench::JsonValue::integer(static_cast<std::int64_t>(tstats.activations));
      tb["reactivations"] =
          bench::JsonValue::integer(static_cast<std::int64_t>(tstats.reactivations));
      tb["evictions"] =
          bench::JsonValue::integer(static_cast<std::int64_t>(tstats.evictions));
      tb["promotions"] =
          bench::JsonValue::integer(static_cast<std::int64_t>(tstats.promotions));
      tb["spill_discards"] =
          bench::JsonValue::integer(static_cast<std::int64_t>(tstats.spill_discards));
      tb["resident"] =
          bench::JsonValue::integer(static_cast<std::int64_t>(tstats.resident));
      tb["resident_bytes"] =
          bench::JsonValue::integer(static_cast<std::int64_t>(tstats.resident_bytes));
      root["tenant"] = tb;
    }
    if (!bench::write_json_file(json_path, root)) {
      return 2;
    }
  }

  int status = 0;
  if (args.get_bool("assert-zero-errors", false) && r.errors != 0) {
    std::cerr << "ASSERT FAILED: " << r.errors << " errored requests\n";
    status = 1;
  }
  if (args.has("assert-p99-ms")) {
    const double bound = args.get_double("assert-p99-ms", 0.0);
    const double p99_ms = r.latency.percentile_ns(99) / 1e6;
    if (p99_ms > bound) {
      std::cerr << "ASSERT FAILED: p99 " << p99_ms << " ms > bound " << bound
                << " ms\n";
      status = 1;
    }
  }
  if (r.completed == 0) {
    std::cerr << "ASSERT FAILED: no requests completed\n";
    status = 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    if (const std::optional<std::string> unknown = args.first_unknown(kOptions)) {
      std::cerr << "load_generator: unknown option --" << *unknown << "\n";
      return 1;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "load_generator error: " << e.what() << "\n";
    return 2;
  }
}
