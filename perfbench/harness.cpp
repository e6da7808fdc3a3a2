// The repository benchmark: one process runs one workload with one seed and
// prints its figures as the last line of stdout (see perfbench/README.md).
//
//   perfbench --workload serve_snapshot|serve_tenants|train_sharded
//             --seed N --seconds S --trace 0|1 [--smoke] [--spans PATH]
//
// --trace 0 measures the end-to-end metrics with telemetry off (the `reghd
// serve` default). --trace 1 is the separate traced run: the same workload
// with obs/ telemetry and the benchmark's own spans switched on, followed by
// layer probes that time the library's public calls one at a time; it
// prints the per-layer metrics. Every layer is measured from outside, by
// timing calls into serve::Server, serve::TenantStore, core::OnlineRegHD,
// core::MultiModelRegressor, core::EncodedDataset, core::ShardedTrainer and
// the online checkpoint functions.
//
// Before the result line the run prints one `{"record": …}` line: host and
// build provenance, the thread budget, every check, and the workload's
// figures under their per-workload names (sat_qps, goodput_qps, error_frac,
// pred_mse, train_samples_per_s, val_mse, …).
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "core/encoded.hpp"
#include "core/model_io.hpp"
#include "core/multi_model.hpp"
#include "core/online.hpp"
#include "core/sharded_training.hpp"
#include "data/scaler.hpp"
#include "data/synthetic.hpp"
#include "harness_lib.hpp"
#include "hdc/encoding.hpp"
#include "hdc/kernel_backend.hpp"
#include "obs/telemetry.hpp"
#include "serve/server.hpp"
#include "serve/tenant_store.hpp"
#include "util/args.hpp"
#include "util/crc32c.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace reghd::perfbench {
namespace {

std::uint64_t now_ns() { return bench::OpenLoopPacer::now_ns(); }
double seconds_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

constexpr std::size_t kSetupReps = 3;  // setup_s is the median of these
constexpr std::size_t kRounds = 9;     // phases interleave in rounds; figures are medians
// The data every workload learns from is fixed, so quality figures compare
// like with like; --seed drives the request streams and query orders.
constexpr std::uint64_t kDataSeed = 0xDA7A5EED;
constexpr std::uint64_t kModelSeed = 17;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
  std::string commit;
};

/// Run-wide failure accounting: `attempted`, `failed` and error_frac.
struct Tally {
  std::uint64_t attempts = 0;
  std::uint64_t worker_errors = 0;
  std::uint64_t refusals = 0;
  std::uint64_t train_drops = 0;
  std::uint64_t nonfinite = 0;
  std::vector<std::string> check_failures;
  std::vector<std::string> checks_passed;

  [[nodiscard]] std::uint64_t failed() const {
    return worker_errors + refusals + train_drops + nonfinite;
  }
  [[nodiscard]] double error_frac() const {
    return attempts > 0 ? static_cast<double>(failed()) / static_cast<double>(attempts) : 0.0;
  }
  void check(bool ok, const std::string& what) {
    (ok ? checks_passed : check_failures).push_back(what);
  }
};

/// Free-form run-record fields, printed as one JSON line before the result.
class Record {
 public:
  void set(const std::string& key, const std::string& json_value) {
    fields_.emplace_back(key, json_value);
  }
  void num(const std::string& key, double v) { set(key, json_number(v)); }
  void str(const std::string& key, const std::string& v) { set(key, json_string(v)); }
  void metric(const std::string& key, double v, const std::string& unit) {
    set(key, "{\"value\": " + json_number(v) + ", \"unit\": " + json_string(unit) + "}");
  }
  [[nodiscard]] std::string line() const {
    std::string out = "{\"record\": {";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + json_string(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(items[i]);
  }
  return out + "]";
}

std::string env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "";
}

/// Checks server + driver threads against nproc; records both numbers.
void enforce_thread_budget(Record& rec, std::size_t server_threads, std::size_t driver_threads) {
  const std::size_t cpus = nproc();
  rec.num("nproc", static_cast<double>(cpus));
  rec.num("server_threads", static_cast<double>(server_threads));
  rec.num("driver_threads", static_cast<double>(driver_threads));
  if (server_threads + driver_threads > cpus) {
    throw std::runtime_error("thread budget exceeded: " + std::to_string(server_threads) +
                             " server + " + std::to_string(driver_threads) +
                             " driver threads > nproc " + std::to_string(cpus));
  }
}

// ---------------------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------------------

struct ServeSpec {
  bool tenant;
  std::size_t shards;
  std::size_t dim;
  std::size_t features;
  std::size_t models;
  std::size_t keys;
  double zipf_s;
  std::size_t pool_rows;
  std::size_t max_batch;
  std::size_t resident_budget;   ///< tenant mode
  std::size_t train_every;       ///< one try_train per this many predicts
  bool train_in_closed_loop;
  double warmup_s;
  double low_rate;   ///< offered predicts/s, low fixed-rate phase
  double high_rate;  ///< offered predicts/s, high fixed-rate phase
  double limit_ms;   ///< goodput latency limit
};

// Offered loads are absolute and fixed for every run, so a parent and a
// child commit see the same load. They were placed from the capacity this
// commit measured on a 4-vCPU x86-64 VM (snapshot ≈ 15k req/s saturated,
// tenants ≈ 17k) where the open-loop p50 repeats across runs: on
// serve_snapshot the low rate stays on the fused single-query path and the
// high rate on the batched path, clear of the admission flip between them.
ServeSpec snapshot_spec(bool smoke) {
  ServeSpec s{false, 1, 2048, 32, 4, 1024, 1.1, 2048, 128,
              0, 8, false, 0.3, 2000.0, 8000.0, 25.0};
  if (smoke) {
    s.warmup_s = 0.05;
  }
  return s;
}

ServeSpec tenants_spec(bool smoke) {
  // One pool row per tenant key.
  ServeSpec s{true, 2, 512, 16, 2, 100'000, 0.9, 100'000, 64,
              2048, 3, true, 4.0, 4000.0, 8000.0, 25.0};
  if (smoke) {
    s.keys = 5'000;
    s.pool_rows = 5'000;
    s.resident_budget = 256;
    s.warmup_s = 0.05;
  }
  return s;
}

std::size_t server_threads(const ServeSpec& s) {
  return s.tenant ? s.shards : 2 * s.shards;  // tenant: one loop; snapshot: worker + trainer
}

core::OnlineConfig online_config(const ServeSpec& s) {
  core::OnlineConfig cfg;
  cfg.reghd.dim = s.dim;
  cfg.reghd.models = s.models;
  cfg.reghd.seed = kModelSeed;
  cfg.reghd.threads = 1;  // the shard thread is the parallelism unit
  cfg.requantize_every = 256;
  cfg.encoder.projection_storage = hdc::ProjectionStorage::kRematerialized;
  return cfg;
}

serve::ServeConfig serve_config(const ServeSpec& s) {
  serve::ServeConfig cfg;  // default publish cadence and batch threshold
  cfg.shards = s.shards;
  cfg.max_batch = s.max_batch;
  if (s.tenant) {
    serve::TenantStoreConfig tc;
    tc.resident_budget = s.resident_budget;
    tc.tiered_dims = true;
    tc.tier_updates = {64, 512};
    // In-memory spill (no spill_dir), capped so resident memory plateaus
    // early in the run instead of growing with how many ops a run manages.
    tc.spill_budget_bytes = std::size_t{32} << 20;
    cfg.tenant = tc;
  }
  return cfg;
}

data::Dataset make_pool(const ServeSpec& s) {
  return data::make_multimodal_task(s.pool_rows, s.features, s.models, kDataSeed);
}

/// The snapshot-mode learner the server is bootstrapped from: 1024
/// prequential updates over the pool's leading rows.
core::OnlineRegHD pretrained(const ServeSpec& s, const data::Dataset& pool) {
  core::OnlineRegHD learner(online_config(s), pool.num_features());
  for (std::size_t i = 0; i < 1024; ++i) {
    const std::size_t r = i % pool.size();
    learner.update(pool.row(r), pool.target(r));
  }
  return learner;
}

struct ServeFixture {
  data::Dataset pool;
  std::optional<core::OnlineRegHD> learner;  ///< snapshot mode only
  std::unique_ptr<serve::Server> server;
};

/// Data generation, pretraining, bootstrap and start() — what setup_s times.
std::unique_ptr<ServeFixture> build_fixture(const ServeSpec& s) {
  auto fx = std::make_unique<ServeFixture>();
  fx->pool = make_pool(s);
  fx->server = std::make_unique<serve::Server>(serve_config(s), online_config(s),
                                               fx->pool.num_features());
  if (!s.tenant) {
    fx->learner.emplace(pretrained(s, fx->pool));
    for (std::size_t shard = 0; shard < s.shards; ++shard) {
      fx->server->bootstrap(shard, *fx->learner);
    }
  }
  fx->server->start();
  return fx;
}

struct ServeDriver {
  const ServeSpec& spec;
  const data::Dataset& pool;
  serve::Server& server;
  bench::ZipfSampler keys;
  SpanRecorder& spans;
  Tally& tally;
  std::vector<std::uint64_t> predicts_per_shard;
  std::vector<std::uint64_t> trains_per_shard;
  std::uint64_t next_id = 0;
  bench::LatencyRecorder late{1 << 16};  ///< open-loop submit instant − due time

  std::size_t row_of(std::uint64_t key) const { return key % pool.size(); }

  void count_predict(std::uint64_t key) { ++predicts_per_shard[server.shard_of(key)]; }

  /// try_train, counting admitted samples per shard for settle().
  bool train(std::uint64_t key) {
    const std::size_t r = row_of(key);
    if (!server.try_train(key, pool.row(r), pool.target(r))) {
      return false;
    }
    ++trains_per_shard[server.shard_of(key)];
    return true;
  }

  /// Closed-loop train submission: retried until admitted (backpressure).
  void train_blocking(std::uint64_t key) {
    ++tally.attempts;
    while (!train(key)) {
    }
  }

  /// Waits until every admitted train sample has been applied, so each phase
  /// starts without the previous phase's training backlog.
  void settle() {
    const std::uint64_t give_up = now_ns() + 30'000'000'000ULL;
    for (std::size_t shard = 0; shard < trains_per_shard.size(); ++shard) {
      while (server.train_applied(shard) < trains_per_shard[shard] && now_ns() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (server.train_applied(shard) < trains_per_shard[shard]) {
        tally.check(false, "shard " + std::to_string(shard) + " applied its training backlog");
      }
    }
  }
};

struct CheckedPrediction {
  std::size_t row;
  double served;
};

/// Closed loop: keeps `inflight` predicts outstanding for `seconds` and
/// returns completions per second. Every 16th completion lands in `checked`
/// (when given) for the bit-identity check.
double closed_loop(ServeDriver& d, double seconds, std::size_t inflight,
                   std::vector<CheckedPrediction>* checked) {
  std::vector<serve::RequestSlot> slots(inflight);
  std::vector<std::size_t> slot_row(inflight, 0);
  std::vector<std::uint64_t> slot_start(inflight, 0);
  std::vector<std::uint64_t> slot_submitted(inflight, 0);
  std::vector<std::uint64_t> slot_id(inflight, 0);
  std::deque<std::size_t> outstanding;
  std::vector<std::size_t> free_slots(inflight);
  for (std::size_t i = 0; i < inflight; ++i) {
    free_slots[i] = i;
  }
  std::uint64_t completed = 0;
  std::uint64_t submitted = 0;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  for (;;) {
    const bool closing = now_ns() >= deadline;
    if (!closing && !free_slots.empty()) {
      const std::size_t s = free_slots.back();
      free_slots.pop_back();
      const std::uint64_t key = d.keys.next();
      slot_row[s] = d.row_of(key);
      slot_id[s] = d.next_id++;
      slots[s].reset();
      slot_start[s] = d.spans.enabled() ? now_ns() : 0;
      while (!d.server.try_predict(key, d.pool.row(slot_row[s]), &slots[s])) {
        // full ring = backpressure; spin until admitted
      }
      slot_submitted[s] = d.spans.enabled() ? now_ns() : 0;
      ++d.tally.attempts;
      d.count_predict(key);
      outstanding.push_back(s);
      if (d.spec.train_in_closed_loop && ++submitted % d.spec.train_every == 0) {
        d.train_blocking(d.keys.next());
      }
      continue;
    }
    if (outstanding.empty()) {
      break;
    }
    const std::size_t s = outstanding.front();
    outstanding.pop_front();
    slots[s].wait();
    ++completed;
    if (slots[s].error != 0) {
      ++d.tally.worker_errors;
    } else if (!std::isfinite(slots[s].result)) {
      ++d.tally.nonfinite;
    } else if (checked != nullptr && completed % 16 == 0 && checked->size() < 1024) {
      checked->push_back({slot_row[s], slots[s].result});
    }
    if (d.spans.enabled()) {
      const std::size_t root =
          d.spans.add("serve.request", slot_id[s], SpanRecorder::kNoParent, slot_start[s],
                      slots[s].done_ns.load(std::memory_order_acquire));
      d.spans.add("serve.submit", slot_id[s], root, slot_start[s], slot_submitted[s]);
    }
    free_slots.push_back(s);
  }
  return static_cast<double>(completed) / seconds_since(t0);
}

/// Per-round latency percentiles of one phase. The reported figure is the
/// median over rounds, so one disturbed round does not move it.
struct PhaseLatency {
  std::vector<double> p50_ns;
  std::vector<double> p99_ns;

  void add_round(const bench::LatencyRecorder& round) {
    p50_ns.push_back(round.percentile_ns(50.0));
    p99_ns.push_back(round.percentile_ns(99.0));
  }
  [[nodiscard]] double p50_ms() const { return median(p50_ns) / 1e6; }
  [[nodiscard]] double p99_ms() const { return median(p99_ns) / 1e6; }
};

/// One fixed-rate phase, accumulated over every round.
struct OpenLoopTotals {
  PhaseLatency latency;
  std::vector<RequestOutcome> outcomes;
  double seconds = 0.0;
  double sq_err = 0.0;
  std::uint64_t scored = 0;
  std::uint64_t refusals = 0;
  std::uint64_t train_attempts = 0;
  std::uint64_t train_drops = 0;
};

/// Open loop at a fixed offered rate for one round: arrivals follow an
/// absolute schedule and every latency is completion − scheduled time
/// (coordinated-omission safe). Each arrival is submitted once; a full ring
/// refuses it, which counts as an error. One try_train goes out per
/// spec.train_every arrivals.
void open_loop(ServeDriver& d, double rate, double seconds, OpenLoopTotals& totals) {
  constexpr std::size_t kSlotPool = 8192;
  std::vector<serve::RequestSlot> slots(kSlotPool);
  std::vector<std::uint64_t> scheduled(kSlotPool, 0);
  std::vector<std::uint64_t> submit_begin(kSlotPool, 0);
  std::vector<std::uint64_t> submit_end(kSlotPool, 0);
  std::vector<std::size_t> slot_row(kSlotPool, 0);
  std::vector<std::size_t> slot_request(kSlotPool, 0);
  std::vector<std::uint64_t> slot_id(kSlotPool, 0);
  std::deque<std::size_t> outstanding;
  std::vector<std::size_t> free_slots(kSlotPool);
  for (std::size_t i = 0; i < kSlotPool; ++i) {
    free_slots[i] = i;
  }
  bench::LatencyRecorder round_latency(static_cast<std::size_t>(rate * seconds) + 16);
  const std::uint64_t t0 = now_ns();
  const bench::OpenLoopPacer pacer(rate, t0);
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);

  const auto complete = [&](std::size_t s) {
    const std::uint64_t done = slots[s].done_ns.load(std::memory_order_acquire);
    const std::uint64_t lat = done > scheduled[s] ? done - scheduled[s] : 0;
    RequestOutcome& o = totals.outcomes[slot_request[s]];
    if (slots[s].error != 0) {
      o.status = RequestStatus::kFailed;
      ++d.tally.worker_errors;
    } else if (!std::isfinite(slots[s].result)) {
      o.status = RequestStatus::kFailed;
      ++d.tally.nonfinite;
    } else {
      o.latency_ns = lat;
      const double err = slots[s].result - d.pool.target(slot_row[s]);
      totals.sq_err += err * err;
      ++totals.scored;
    }
    round_latency.record_ns(lat);
    if (d.spans.enabled()) {
      const std::size_t root =
          d.spans.add("serve.request", slot_id[s], SpanRecorder::kNoParent, scheduled[s], done);
      d.spans.add("serve.submit", slot_id[s], root, submit_begin[s], submit_end[s]);
    }
    free_slots.push_back(s);
  };

  for (std::uint64_t i = 0;; ++i) {
    const std::uint64_t sched = pacer.scheduled_ns(i);
    if (sched >= deadline) {
      break;
    }
    // The driver owns a core of the thread budget, so it spins to each due
    // time instead of sleeping: a sleeping driver wakes late under
    // virtualization, and its lateness would be charged to the server.
    while (bench::OpenLoopPacer::now_ns() < sched) {
      std::this_thread::yield();
    }
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
    const std::uint64_t key = d.keys.next();
    slot_row[s] = d.row_of(key);
    slot_request[s] = totals.outcomes.size();
    slot_id[s] = d.next_id++;
    scheduled[s] = sched;
    totals.outcomes.push_back({});
    slots[s].reset();
    ++d.tally.attempts;
    submit_begin[s] = now_ns();
    d.late.record_ns(submit_begin[s] > sched ? submit_begin[s] - sched : 0);
    const bool admitted = d.server.try_predict(key, d.pool.row(slot_row[s]), &slots[s]);
    submit_end[s] = now_ns();
    if (admitted) {
      d.count_predict(key);
      outstanding.push_back(s);
    } else {
      totals.outcomes.back().status = RequestStatus::kRefused;
      ++totals.refusals;
      ++d.tally.refusals;
      free_slots.push_back(s);
    }
    if (i % d.spec.train_every == d.spec.train_every - 1) {
      ++d.tally.attempts;
      ++totals.train_attempts;
      if (!d.train(d.keys.next())) {
        ++totals.train_drops;
        ++d.tally.train_drops;
      }
    }
  }
  while (!outstanding.empty()) {
    const std::size_t s = outstanding.front();
    outstanding.pop_front();
    slots[s].wait();
    complete(s);
  }
  totals.latency.add_round(round_latency);
  totals.seconds += seconds;
}

void set_tracing(SpanRecorder& spans, bool on) {
  obs::set_enabled(on);
  spans.set_enabled(on);
}

struct ServeResult {
  double setup_s = 0.0;
  std::vector<double> sat_rounds;         ///< untraced closed-loop qps per round
  std::vector<double> sat_traced_rounds;  ///< traced closed-loop qps (trace run)
  OpenLoopTotals low;
  OpenLoopTotals high;
  double pred_mse = 0.0;
  double late_p99_ns = 0.0;
  std::vector<double> shard_load;  ///< tenant hits+misses, or predicts, per shard
  obs::TelemetrySnapshot telemetry;
};

/// One serving workload: setup ×kSetupReps and a warmup, then kRounds rounds
/// of closed-loop saturation → low fixed rate → high fixed rate, so slow
/// drift in the host's speed lands on every phase alike. The traced run
/// splits each closed-loop window into an untraced and a traced half (the
/// overhead estimate) and traces both fixed-rate phases.
ServeResult run_serve(const ServeSpec& spec, const Options& opt, double seconds, bool traced,
                      SpanRecorder& spans, Tally& tally) {
  ServeResult r;
  std::vector<double> setup_times;
  std::unique_ptr<ServeFixture> fx;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    if (fx) {
      fx->server->stop();
      fx.reset();
    }
    const std::uint64_t t0 = now_ns();
    fx = build_fixture(spec);
    setup_times.push_back(seconds_since(t0));
  }
  r.setup_s = median(setup_times);

  ServeDriver d{spec,
                fx->pool,
                *fx->server,
                bench::ZipfSampler(spec.keys, spec.zipf_s, opt.seed),
                spans,
                tally,
                std::vector<std::uint64_t>(spec.shards, 0),
                std::vector<std::uint64_t>(spec.shards, 0)};
  constexpr std::size_t kInflight = 256;
  (void)closed_loop(d, spec.warmup_s, kInflight, nullptr);
  d.settle();
  obs::reset();

  const double round_s = seconds / static_cast<double>(kRounds);
  std::vector<CheckedPrediction> checked;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Only round 0's closed loop runs before any training traffic, so only
    // it can be checked against the bootstrapped learner.
    std::vector<CheckedPrediction>* check = round == 0 && !spec.tenant ? &checked : nullptr;
    if (traced) {
      for (const bool on : {round % 2 == 1, round % 2 == 0}) {
        set_tracing(spans, on);
        (on ? r.sat_traced_rounds : r.sat_rounds)
            .push_back(closed_loop(d, 0.2 * round_s, kInflight, check));
      }
      set_tracing(spans, true);
    } else {
      r.sat_rounds.push_back(closed_loop(d, 0.4 * round_s, kInflight, check));
    }
    d.settle();
    open_loop(d, spec.low_rate, 0.3 * round_s, r.low);
    d.settle();
    open_loop(d, spec.high_rate, 0.3 * round_s, r.high);
    d.settle();
  }
  r.telemetry = obs::snapshot();
  set_tracing(spans, false);
  fx->server->stop();

  if (!spec.tenant) {
    std::size_t mismatches = 0;
    for (const CheckedPrediction& c : checked) {
      const double expect = fx->learner->predict(fx->pool.row(c.row));
      mismatches += std::bit_cast<std::uint64_t>(expect) != std::bit_cast<std::uint64_t>(c.served);
    }
    tally.check(!checked.empty() && mismatches == 0,
                "read-only predictions bit-identical to the bootstrapped learner (" +
                    std::to_string(checked.size()) + " sampled, " +
                    std::to_string(mismatches) + " mismatched)");
  }
  const std::uint64_t scored = r.low.scored + r.high.scored;
  r.pred_mse = scored > 0 ? (r.low.sq_err + r.high.sq_err) / static_cast<double>(scored) : 0.0;
  tally.check(scored > 0 && std::isfinite(r.pred_mse), "fixed-rate predictions scored");
  r.late_p99_ns = d.late.percentile_ns(99.0);

  for (std::size_t shard = 0; shard < spec.shards; ++shard) {
    if (spec.tenant) {
      const serve::TenantStoreStats st = fx->server->tenant_stats(shard);
      const std::uint64_t lookups = st.hits + st.misses;
      const std::uint64_t expected =
          d.predicts_per_shard[shard] + fx->server->train_applied(shard);
      tally.check(lookups == expected,
                  "tenant shard " + std::to_string(shard) + ": hits+misses " +
                      std::to_string(lookups) + " == predicts+trains applied " +
                      std::to_string(expected));
      r.shard_load.push_back(static_cast<double>(lookups));
    } else {
      r.shard_load.push_back(static_cast<double>(d.predicts_per_shard[shard]));
    }
  }
  return r;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_number(values[i]);
  }
  return out + "]";
}

void record_serve(Record& rec, MetricSet& m, const ServeSpec& spec, const ServeResult& r) {
  const double sat_qps = median(r.sat_rounds);
  const auto limit_ns = static_cast<std::uint64_t>(spec.limit_ms * 1e6);
  const double goodput = goodput_per_s(r.high.outcomes, limit_ns, r.high.seconds);

  rec.num("offered_low_qps", spec.low_rate);
  rec.num("offered_high_qps", spec.high_rate);
  rec.num("latency_limit_ms", spec.limit_ms);
  rec.num("achieved_low_qps", static_cast<double>(r.low.scored) / r.low.seconds);
  rec.num("achieved_high_qps", static_cast<double>(r.high.scored) / r.high.seconds);
  rec.metric("sat_qps", sat_qps, "req/s");
  rec.set("sat_qps_rounds", json_array(r.sat_rounds));
  rec.metric("low_p50_ms", r.low.latency.p50_ms(), "ms");
  rec.metric("low_p99_ms", r.low.latency.p99_ms(), "ms");
  rec.metric("high_p50_ms", r.high.latency.p50_ms(), "ms");
  rec.metric("high_p99_ms", r.high.latency.p99_ms(), "ms");
  rec.set("low_p99_ms_rounds", json_array(r.low.latency.p99_ns));
  rec.num("driver_late_p99_ms", r.late_p99_ns / 1e6);
  rec.set("high_p50_ms_rounds", json_array(r.high.latency.p50_ns));
  rec.set("high_p99_ms_rounds", json_array(r.high.latency.p99_ns));
  rec.metric("goodput_qps", goodput, "req/s");
  rec.metric("pred_mse", r.pred_mse, "target_sq");

  m.add("throughput_per_s", sat_qps, "1/s");
  m.add("mse", r.pred_mse, "target_sq");
  m.add("low_p50_ms", r.low.latency.p50_ms(), "ms");
  m.add("high_p50_ms", r.high.latency.p50_ms(), "ms");
}

/// serve.* and driver.* per-layer metrics from a traced serving run.
void serve_layer_metrics(MetricSet& m, const ServeResult& r, const SpanRecorder& spans) {
  const obs::TelemetrySnapshot& t = r.telemetry;
  const double batched = static_cast<double>(t.counter(obs::Counter::kServeBatchRows));
  const double single = static_cast<double>(t.counter(obs::Counter::kServeSingleRows));
  const double offered = static_cast<double>(r.low.outcomes.size() + r.high.outcomes.size());
  const double train_attempts = static_cast<double>(r.low.train_attempts + r.high.train_attempts);
  const double mean_load =
      std::accumulate(r.shard_load.begin(), r.shard_load.end(), 0.0) /
      static_cast<double>(r.shard_load.size());
  const double max_load = *std::max_element(r.shard_load.begin(), r.shard_load.end());

  m.add_timing("serve.submit_ns", spans.durations("serve.submit"), 1.0, "ns");
  m.add("serve.ring_full_frac",
        static_cast<double>(r.low.refusals + r.high.refusals) / offered, "ratio");
  m.add("serve.train_drop_frac",
        train_attempts > 0
            ? static_cast<double>(r.low.train_drops + r.high.train_drops) / train_attempts
            : 0.0,
        "ratio");
  m.add("serve.batched_row_frac", batched + single > 0 ? batched / (batched + single) : 0.0,
        "ratio");
  m.add("serve.batch_fill_mean", t.histogram(obs::Histo::kServeBatchFill).mean_ns(), "rows");
  m.add("serve.publishes_per_s",
        static_cast<double>(t.counter(obs::Counter::kServeSnapshotPublishes)) /
            (r.low.seconds + r.high.seconds),
        "1/s");
  m.add("serve.shard_skew", mean_load > 0 ? max_load / mean_load : 0.0, "ratio");
  m.add("driver.late_p99_ms", r.late_p99_ns / 1e6, "ms");
}

// ---------------------------------------------------------------------------
// Training workload
// ---------------------------------------------------------------------------

struct TrainSpec {
  std::size_t train_rows;
  std::size_t val_rows;
  std::size_t dim;
  std::size_t models;
  std::size_t epochs;  ///< max_epochs; patience = epochs, so every fit runs them all
  std::size_t shards;
  std::size_t threads;
  std::size_t refine_epochs;
  std::size_t latency_batch;
};

TrainSpec train_spec(bool smoke) {
  TrainSpec s{16384, 4096, 4096, 8, 3, 4, 4, 1, 128};
  if (smoke) {
    s.train_rows = 1024;
    s.val_rows = 256;
    s.dim = 1024;
  }
  return s;
}

core::RegHDConfig train_config(const TrainSpec& s, std::size_t threads) {
  core::RegHDConfig cfg;
  cfg.dim = s.dim;
  cfg.models = s.models;
  cfg.seed = kModelSeed;
  cfg.max_epochs = s.epochs;
  cfg.patience = s.epochs;
  cfg.threads = threads;
  return cfg;
}

struct TrainData {
  data::Dataset train_raw;  ///< raw rows: each fit starts from these
  data::Dataset val;        ///< standardized with the training statistics
  data::StandardScaler features;
  data::TargetScaler target;
  std::unique_ptr<hdc::Encoder> encoder;
  core::EncodedDataset val_enc;
};

/// Data generation, scaler fit and the encode of the validation rows — what
/// setup_s times for train_sharded.
std::unique_ptr<TrainData> make_train_data(const TrainSpec& s) {
  auto d = std::make_unique<TrainData>();
  const data::Dataset all = data::make_friedman1(s.train_rows + s.val_rows, kDataSeed);
  std::vector<std::size_t> head(s.train_rows);
  std::vector<std::size_t> tail(s.val_rows);
  std::iota(head.begin(), head.end(), 0);
  std::iota(tail.begin(), tail.end(), s.train_rows);
  d->train_raw = all.subset(head);
  d->val = all.subset(tail);
  d->features.fit(d->train_raw);
  d->target.fit(d->train_raw);
  d->features.transform(d->val);
  d->target.transform(d->val);
  hdc::EncoderConfig ec;
  ec.kind = hdc::EncoderKind::kRffProjection;
  ec.input_dim = d->train_raw.num_features();
  ec.dim = s.dim;
  ec.seed = kModelSeed;
  ec.projection_storage = hdc::ProjectionStorage::kResident;
  d->encoder = hdc::make_encoder(ec);
  d->val_enc = core::EncodedDataset::from(*d->encoder, d->val, s.threads);
  return d;
}

std::uint32_t model_crc(const core::MultiModelRegressor& model) {
  std::ostringstream os(std::ios::binary);
  core::io::write_model_section(os, model);
  return util::crc32c(os.str());
}

struct FitResult {
  double seconds = 0.0;
  double samples = 0.0;  ///< training rows × epochs run (shard epochs + refine)
  std::uint32_t crc = 0;
  double val_mse = 0.0;  ///< original target units
  std::unique_ptr<core::MultiModelRegressor> model;
};

/// Span names of one fit: the workload's own fits and the layer probes'
/// fits are kept apart so the per-layer figures mean the same thing in
/// every workload's traced run.
struct FitSpanNames {
  const char* run;
  const char* encode;
  const char* fit;
};
constexpr FitSpanNames kWorkloadFit{"workload.train", "workload.encode", "workload.fit"};
constexpr FitSpanNames kProbeFit{"train.run", "hdc.train_encode", "train.fit"};
constexpr FitSpanNames kProbeFitS1{"train.run_s1", "hdc.train_encode_s1", "train.fit_s1"};

/// Raw training rows → standardized → EncodedDataset::from →
/// ShardedTrainer::fit, timed end to end.
FitResult fit_once(const TrainSpec& s, const TrainData& d, std::size_t shards,
                   std::size_t threads, SpanRecorder& spans, std::uint64_t id,
                   const FitSpanNames& names) {
  FitResult r;
  const std::uint64_t t0 = now_ns();
  const std::size_t root = spans.begin(names.run, id);
  data::Dataset train = d.train_raw;
  d.features.transform(train);
  d.target.transform(train);
  std::size_t sp = spans.begin(names.encode, id, root);
  const core::EncodedDataset enc = core::EncodedDataset::from(*d.encoder, train, threads);
  spans.end(sp);
  core::ShardedTrainer trainer(train_config(s, threads));
  core::ShardedTrainConfig sc;
  sc.shards = shards;
  sc.refine_epochs = s.refine_epochs;
  sc.threads = threads;
  sp = spans.begin(names.fit, id, root);
  const core::ShardedTrainReport report = trainer.fit(enc, d.val_enc, sc);
  spans.end(sp);
  spans.end(root);
  r.seconds = seconds_since(t0);
  for (const core::ShardReport& sr : report.shard_reports) {
    r.samples += static_cast<double>(sr.rows * sr.report.epochs_run);
  }
  r.samples += static_cast<double>(train.size() * report.refine_history.size());
  r.model = trainer.take_regressor();
  r.crc = model_crc(*r.model);
  r.val_mse = report.final_val_mse * d.target.stddev() * d.target.stddev();
  return r;
}

/// Inference latency of the fitted model for one round, in original units:
/// one row through the fused predict_one ("low"), and one latency_batch-row
/// admission group through assign_rows + predict_batch_into ("high"). Query
/// rows are drawn from the validation split by `rng`.
void train_inference_round(const TrainSpec& s, const TrainData& d,
                           const core::MultiModelRegressor& model, double seconds,
                           std::mt19937_64& rng, PhaseLatency& low, PhaseLatency& high,
                           Tally& tally) {
  const std::size_t nf = d.val.num_features();
  const std::size_t batch = std::min(s.latency_batch, d.val.size());
  const auto half_ns = static_cast<std::uint64_t>(seconds * 0.5e9);
  const auto finite = [&](double y) {
    ++tally.attempts;
    if (!std::isfinite(y)) {
      ++tally.nonfinite;
    }
  };

  bench::LatencyRecorder lat;
  std::uniform_int_distribution<std::size_t> pick_row(0, d.val.size() - 1);
  for (const std::uint64_t end = now_ns() + half_ns; now_ns() < end;) {
    const std::size_t row = pick_row(rng);
    const std::uint64_t t0 = now_ns();
    const double y = d.target.inverse_value(model.predict_one(*d.encoder, d.val.row(row)));
    lat.record_ns(now_ns() - t0);
    finite(y);
  }
  low.add_round(lat);

  core::EncodedDataset arena;
  core::MultiModelRegressor::PredictScratch scratch;
  model.prepare_predict_scratch(scratch);
  std::vector<double> out(batch);
  const std::span<const double> flat = d.val.features_flat();
  std::uniform_int_distribution<std::size_t> pick_group(0, d.val.size() / batch - 1);
  bench::LatencyRecorder group_lat;
  bool batched_matches_single = true;
  for (const std::uint64_t end = now_ns() + half_ns; now_ns() < end;) {
    const std::size_t first = pick_group(rng) * batch;
    const std::uint64_t t0 = now_ns();
    arena.assign_rows(*d.encoder, flat.subspan(first * nf, batch * nf), batch, 1);
    model.predict_batch_into(arena, {out.data(), batch}, scratch);
    for (double& y : out) {
      y = d.target.inverse_value(y);
    }
    group_lat.record_ns(now_ns() - t0);
    for (const double y : out) {
      finite(y);
    }
    if (group_lat.count() == 1) {
      for (std::size_t j = 0; j < batch; ++j) {
        const double single =
            d.target.inverse_value(model.predict_one(*d.encoder, d.val.row(first + j)));
        batched_matches_single &= std::bit_cast<std::uint64_t>(single) ==
                                  std::bit_cast<std::uint64_t>(out[j]);
      }
    }
  }
  high.add_round(group_lat);
  tally.check(batched_matches_single,
              "batched predictions bit-identical to single-row predict_one");
}

struct TrainResult {
  double setup_s = 0.0;
  std::vector<double> fit_rates;         ///< untraced fits, training rows/s
  std::vector<double> fit_rates_traced;  ///< traced fits (trace run)
  double val_mse = 0.0;
  std::uint32_t crc = 0;
  PhaseLatency low;
  PhaseLatency high;
};

/// kRounds rounds of: fits for 70% of the round (at least one), then the
/// fitted model's single-row and batched inference latency. The traced run
/// alternates untraced and traced fits for the overhead figure.
TrainResult run_train(const Options& opt, double seconds, bool traced, SpanRecorder& spans,
                      Tally& tally, Record& rec) {
  const TrainSpec s = train_spec(opt.smoke);
  TrainResult r;
  std::vector<double> setup_times;
  std::unique_ptr<TrainData> d;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    d.reset();
    const std::uint64_t t0 = now_ns();
    d = make_train_data(s);
    setup_times.push_back(seconds_since(t0));
  }
  r.setup_s = median(setup_times);

  std::mt19937_64 rng(opt.seed);
  std::vector<std::uint32_t> crcs;
  FitResult last;
  const double round_s = seconds / static_cast<double>(kRounds);
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::uint64_t fit_end = now_ns() + static_cast<std::uint64_t>(0.7 * round_s * 1e9);
    do {
      const bool on = traced && crcs.size() % 2 == 1;
      set_tracing(spans, on);
      last = fit_once(s, *d, s.shards, s.threads, spans, crcs.size(), kWorkloadFit);
      set_tracing(spans, false);
      (on ? r.fit_rates_traced : r.fit_rates).push_back(last.samples / last.seconds);
      crcs.push_back(last.crc);
      ++tally.attempts;
      if (!std::isfinite(last.val_mse)) {
        ++tally.nonfinite;
      }
    } while (now_ns() < fit_end);
    train_inference_round(s, *d, *last.model, 0.3 * round_s, rng, r.low, r.high, tally);
  }
  r.val_mse = last.val_mse;
  r.crc = last.crc;
  tally.check(std::all_of(crcs.begin(), crcs.end(), [&](std::uint32_t c) { return c == r.crc; }),
              "all " + std::to_string(crcs.size()) + " T=" + std::to_string(s.threads) +
                  " fits have the same model CRC (" + std::to_string(r.crc) + ")");

  // The merge contract: the model bytes do not depend on the thread count.
  SpanRecorder off(false);
  const FitResult t1 = fit_once(s, *d, s.shards, 1, off, 0, kWorkloadFit);
  tally.check(t1.crc == r.crc, "S=" + std::to_string(s.shards) + " model CRC at T=1 (" +
                                   std::to_string(t1.crc) + ") equals T=" +
                                   std::to_string(s.threads));
  rec.str("model_crc32c", std::to_string(r.crc));
  rec.set("fit_rows_per_s", json_array(r.fit_rates));
  return r;
}

// ---------------------------------------------------------------------------
// Layer probes (traced run): the library's public calls timed one by one
// ---------------------------------------------------------------------------

/// hdc encode, core scan / fused predict / update / checkpoint state, and
/// serve bootstrap, on the serve_snapshot learner (and a D=512 tenant
/// learner for the state figures).
void probe_online(const Options& opt, MetricSet& m, SpanRecorder& spans) {
  const ServeSpec ss = snapshot_spec(opt.smoke);
  const data::Dataset pool = make_pool(ss);
  const core::OnlineRegHD learner = pretrained(ss, pool);
  const std::size_t nf = pool.num_features();
  const std::size_t scale_down = opt.smoke ? 10 : 1;

  struct BatchProbe {
    std::size_t batch;
    const char* tag;
    const char* encode_span;
    const char* scan_span;
  };
  for (const BatchProbe& p : {BatchProbe{16, ".b16", "hdc.encode.b16", "core.scan.b16"},
                              BatchProbe{128, ".b128", "hdc.encode.b128", "core.scan.b128"}}) {
    const std::size_t batch = p.batch;
    std::vector<double> raw(batch * nf);
    std::vector<double> scaled(batch * nf);
    std::vector<double> out(batch);
    core::EncodedDataset arena;
    core::MultiModelRegressor::PredictScratch scratch;
    learner.model().prepare_predict_scratch(scratch);
    const std::size_t reps = (batch == 16 ? 400 : 100) / scale_down;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const std::size_t first = (rep * batch) % (pool.size() - batch);
      std::copy_n(pool.features_flat().begin() + static_cast<std::ptrdiff_t>(first * nf),
                  batch * nf, raw.begin());
      std::size_t sp = spans.begin(p.encode_span, rep);
      learner.standardize_rows_into(raw, batch, scaled);
      arena.assign_rows(learner.encoder(), scaled, batch, 1);
      spans.end(sp);
      sp = spans.begin(p.scan_span, rep);
      learner.model().predict_batch_into(arena, out, scratch);
      for (double& y : out) {
        y = learner.unscale(y);
      }
      spans.end(sp);
    }
    const double per_row = 1.0 / static_cast<double>(batch);
    m.add_timing(std::string("hdc.encode_ns_per_row") + p.tag, spans.durations(p.encode_span),
                 per_row, "ns");
    m.add_timing(std::string("core.scan_ns_per_row") + p.tag, spans.durations(p.scan_span),
                 per_row, "ns");
  }

  std::vector<double> scratch;
  for (std::size_t i = 0; i < 2000 / scale_down; ++i) {
    spans.time("core.fused_predict", i, [&] {
      (void)learner.predict_reusing(pool.row(i % 1024), scratch);
    });
  }
  m.add_timing("core.fused_predict_ns", spans.durations("core.fused_predict"), 1.0, "ns");

  const auto roundtrip = [](const core::OnlineRegHD& l) {
    std::stringstream ss_blob;
    core::save_online_checkpoint(ss_blob, l);
    return core::load_online_checkpoint(ss_blob, hdc::ProjectionStorage::kRematerialized);
  };
  core::OnlineRegHD copy = roundtrip(learner);
  for (std::size_t i = 0; i < 1000 / scale_down; ++i) {
    const std::size_t r = (1024 + i) % pool.size();
    spans.time("core.update", i, [&] { (void)copy.update(pool.row(r), pool.target(r)); });
  }
  m.add_timing("core.update_ns", spans.durations("core.update"), 1.0, "ns");

  // A D=512 tenant learner, trained past the tenant tiers' update counts.
  const ServeSpec ts = tenants_spec(opt.smoke);
  const data::Dataset tpool = make_pool(ts);
  core::OnlineRegHD tenant(online_config(ts), tpool.num_features());
  for (std::size_t i = 0; i < 600; ++i) {
    tenant.update(tpool.row(i), tpool.target(i));
  }
  struct StateProbe {
    const char* tag;
    const core::OnlineRegHD* learner;
    std::size_t reps;
    const char* save_span;
    const char* load_span;
  };
  for (const StateProbe& p :
       {StateProbe{".d2048", &learner, 50, "core.state_save.d2048", "core.state_load.d2048"},
        StateProbe{".d512", &tenant, 200, "core.state_save.d512", "core.state_load.d512"}}) {
    for (std::size_t i = 0; i < p.reps / scale_down; ++i) {
      std::ostringstream os(std::ios::binary);
      spans.time(p.save_span, i, [&] { core::save_online_checkpoint(os, *p.learner); });
      std::istringstream is(os.str(), std::ios::binary);
      spans.time(p.load_span, i, [&] {
        (void)core::load_online_checkpoint(is, hdc::ProjectionStorage::kRematerialized);
      });
    }
    m.add_timing(std::string("core.state_save_ns") + p.tag, spans.durations(p.save_span), 1.0,
                 "ns");
    m.add_timing(std::string("core.state_load_ns") + p.tag, spans.durations(p.load_span), 1.0,
                 "ns");
  }

  serve::Server server(serve_config(ss), online_config(ss), nf);
  for (std::size_t i = 0; i < 20 / std::min<std::size_t>(scale_down, 4); ++i) {
    spans.time("serve.bootstrap", i, [&] { server.bootstrap(0, learner); });
  }
  m.add_timing("serve.bootstrap_ns", spans.durations("serve.bootstrap"), 1.0, "ns");
}

/// A standalone TenantStore with one serve_tenants shard's config, replaying
/// that shard's share of the workload's key stream and 3:1 predict:train mix.
void probe_tenant_store(const Options& opt, MetricSet& m, SpanRecorder& spans) {
  const ServeSpec ts = tenants_spec(opt.smoke);
  const serve::ServeConfig sc = serve_config(ts);
  const data::Dataset pool = make_pool(ts);
  const std::size_t nf = pool.num_features();
  const serve::Server router(sc, online_config(ts), nf);  // never started: shard_of only
  serve::TenantStore store(*sc.tenant, online_config(ts), nf);
  bench::ZipfSampler keys(ts.keys, ts.zipf_s, opt.seed);
  std::unordered_set<std::uint64_t> seen;
  const std::size_t ops = opt.smoke ? 4'000 : 40'000;
  for (std::size_t op = 0; op < ops; ++op) {
    std::uint64_t key = keys.next();
    while (router.shard_of(key) != 0) {
      key = keys.next();
    }
    const std::size_t row = key % pool.size();
    const bool resident = store.is_resident(key);
    if (op % (ts.train_every + 1) == ts.train_every) {
      const std::size_t sp = resident ? spans.begin("tenant.update", op) : SpanRecorder::kNoParent;
      (void)store.update(key, pool.row(row), pool.target(row));
      spans.end(sp);
    } else {
      const char* name = resident ? "tenant.hit" : seen.contains(key) ? "tenant.miss" : "tenant.cold";
      const std::size_t sp = spans.begin(name, op);
      core::OnlineRegHD& learner = store.activate(key);
      spans.end(sp);
      (void)store.predict_activated(learner, pool.row(row));
    }
    seen.insert(key);
  }
  const serve::TenantStoreStats st = store.stats();
  m.add_timing("tenant.hit_ns", spans.durations("tenant.hit"), 1.0, "ns");
  m.add_timing("tenant.miss_ns", spans.durations("tenant.miss"), 1.0, "ns");
  m.add_timing("tenant.cold_ns", spans.durations("tenant.cold"), 1.0, "ns");
  m.add_timing("tenant.update_ns", spans.durations("tenant.update"), 1.0, "ns");
  m.add("tenant.hit_ratio",
        static_cast<double>(st.hits) / static_cast<double>(std::max<std::uint64_t>(1, st.hits + st.misses)),
        "ratio");
  m.add("tenant.evictions_per_kop", 1000.0 * static_cast<double>(st.evictions) / static_cast<double>(ops),
        "count");
  m.add("tenant.spill_discard_frac",
        static_cast<double>(st.spill_discards) /
            static_cast<double>(std::max<std::uint64_t>(1, st.evictions)),
        "ratio");
  m.add("tenant.resident_bytes_est", static_cast<double>(st.resident_bytes), "bytes");
}

/// Training-set encode, S=4/T=4 and S=1/T=1 fits, and the shard merge.
void probe_training(const Options& opt, MetricSet& m, SpanRecorder& spans) {
  const TrainSpec s = train_spec(opt.smoke);
  const std::unique_ptr<TrainData> d = make_train_data(s);
  for (std::size_t i = 0; i < 3; ++i) {
    (void)fit_once(s, *d, s.shards, s.threads, spans, i, kProbeFit);
  }
  (void)fit_once(s, *d, 1, 1, spans, 0, kProbeFitS1);
  const bench::LatencyRecorder fit = spans.durations("train.fit");
  const bench::LatencyRecorder fit1 = spans.durations("train.fit_s1");
  m.add_timing("hdc.train_encode_s", spans.durations("hdc.train_encode"), 1e-9, "s");
  m.add_timing("train.fit_s", fit, 1e-9, "s");
  m.add_timing("train.fit_s1_s", fit1, 1e-9, "s");
  m.add("train.shard_speedup", fit1.percentile_ns(50.0) / fit.percentile_ns(50.0), "x");

  // Four replicas fitted on ShardedTrainer::partition's shards, then merged.
  data::Dataset train = d->train_raw;
  d->features.transform(train);
  d->target.transform(train);
  const core::EncodedDataset enc = core::EncodedDataset::from(*d->encoder, train, s.threads);
  const core::RegHDConfig cfg = train_config(s, 1);
  core::ShardMergeSet set;
  const auto parts = core::ShardedTrainer::partition(enc.size(), s.shards);
  for (std::size_t shard = 0; shard < parts.size(); ++shard) {
    const core::EncodedDataset part = enc.subset(parts[shard]);
    core::MultiModelRegressor replica(cfg);
    (void)replica.fit(part, d->val_enc);
    core::MultiModelRegressor base(cfg);
    base.init_clusters(part);
    set.add(shard, std::move(replica), std::move(base));
  }
  core::MultiModelRegressor merged_base(cfg);
  merged_base.init_clusters(enc);
  for (std::size_t i = 0; i < 5; ++i) {
    core::MultiModelRegressor out = merged_base;
    spans.time("train.merge", i, [&] { set.apply_into(out); });
  }
  m.add_timing("train.merge_s", spans.durations("train.merge"), 1e-9, "s");
}

// ---------------------------------------------------------------------------

int run(const util::Args& args) {
  Options opt;
  opt.workload = args.get_string("workload", "");
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opt.seconds = args.get_double("seconds", 10.0);
  opt.trace = args.get_int("trace", 0) != 0;
  opt.smoke = args.get_bool("smoke", false);
  opt.spans_path = args.get_string("spans", "");
  opt.commit = args.get_string("commit", "unknown");
  if (!(opt.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }

  Record rec;
  rec.str("workload", opt.workload);
  rec.num("seed", static_cast<double>(opt.seed));
  rec.num("seconds", opt.seconds);
  rec.num("trace", opt.trace ? 1 : 0);
  rec.set("smoke", opt.smoke ? "true" : "false");
  rec.str("backend", hdc::active_backend().name);
  rec.str("REGHD_THREADS", env_or_empty("REGHD_THREADS"));
  rec.str("REGHD_KERNEL", env_or_empty("REGHD_KERNEL"));
  rec.str("build_type", PERFBENCH_BUILD_TYPE);
  rec.str("commit", opt.commit);

  Tally tally;
  MetricSet m;
  SpanRecorder spans(false);
  double setup_s = 0.0;

  if (opt.workload == "serve_snapshot" || opt.workload == "serve_tenants") {
    const ServeSpec spec =
        opt.workload == "serve_snapshot" ? snapshot_spec(opt.smoke) : tenants_spec(opt.smoke);
    enforce_thread_budget(rec, server_threads(spec), 1);
    const ServeResult r = run_serve(spec, opt, opt.seconds, opt.trace, spans, tally);
    setup_s = r.setup_s;
    if (opt.trace) {
      serve_layer_metrics(m, r, spans);
      m.add("obs.overhead_frac", 1.0 - median(r.sat_traced_rounds) / median(r.sat_rounds),
            "ratio");
    } else {
      record_serve(rec, m, spec, r);
    }
  } else if (opt.workload == "train_sharded") {
    const TrainSpec s = train_spec(opt.smoke);
    enforce_thread_budget(rec, 0, s.threads);
    const TrainResult r = run_train(opt, opt.seconds, opt.trace, spans, tally, rec);
    setup_s = r.setup_s;
    if (opt.trace) {
      m.add("obs.overhead_frac", 1.0 - median(r.fit_rates_traced) / median(r.fit_rates),
            "ratio");
      // serve.* figures come from a short serve_snapshot run: this workload
      // has no server of its own.
      Tally serve_tally;
      const ServeSpec ss = snapshot_spec(opt.smoke);
      const ServeResult sr =
          run_serve(ss, opt, std::min(opt.seconds, 4.0), true, spans, serve_tally);
      serve_layer_metrics(m, sr, spans);
      for (const std::string& f : serve_tally.check_failures) {
        tally.check(false, "serve probe: " + f);
      }
    } else {
      rec.metric("train_samples_per_s", median(r.fit_rates), "rows/s");
      rec.metric("val_mse", r.val_mse, "target_sq");
      m.add("throughput_per_s", median(r.fit_rates), "1/s");
      m.add("mse", r.val_mse, "target_sq");
      rec.metric("low_p99_ms", r.low.p99_ms(), "ms");
      m.add("low_p50_ms", r.low.p50_ms(), "ms");
      rec.metric("high_p99_ms", r.high.p99_ms(), "ms");
      m.add("high_p50_ms", r.high.p50_ms(), "ms");
    }
  } else {
    throw std::invalid_argument("unknown --workload '" + opt.workload +
                                "' (serve_snapshot, serve_tenants, train_sharded)");
  }

  if (opt.trace) {
    obs::set_enabled(false);
    spans.set_enabled(true);
    probe_online(opt, m, spans);
    probe_tenant_store(opt, m, spans);
    probe_training(opt, m, spans);
  } else {
    m.add("setup_s", setup_s, "s");
    m.add("peak_rss_mb", peak_rss_mib(), "MiB");
  }
  rec.metric("setup_s", setup_s, "s");
  rec.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  rec.metric("error_frac", tally.error_frac(), "ratio");
  rec.num("attempted", static_cast<double>(tally.attempts));
  rec.num("worker_errors", static_cast<double>(tally.worker_errors));
  rec.num("ring_refusals", static_cast<double>(tally.refusals));
  rec.num("train_drops", static_cast<double>(tally.train_drops));
  rec.num("nonfinite", static_cast<double>(tally.nonfinite));

  bool finite = true;
  for (const Metric& metric : m.metrics()) {
    if (!std::isfinite(metric.value)) {
      finite = false;
      tally.check(false, "metric " + metric.name + " is not finite");
    }
  }
  if (opt.trace && !opt.spans_path.empty()) {
    if (!spans.write_jsonl(opt.spans_path)) {
      tally.check(false, "spans written to " + opt.spans_path);
    }
    rec.str("spans", opt.spans_path);
    rec.num("span_count", static_cast<double>(spans.spans().size()));
  }
  rec.set("checks_passed", json_list(tally.checks_passed));
  rec.set("checks_failed", json_list(tally.check_failures));
  const bool correct = finite && tally.check_failures.empty();
  std::cout << rec.line() << "\n"
            << result_line(correct, std::max<std::uint64_t>(1, tally.attempts), tally.failed(), m)
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace reghd::perfbench

int main(int argc, char** argv) {
  try {
    const reghd::util::Args args(argc, argv);
    return reghd::perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
