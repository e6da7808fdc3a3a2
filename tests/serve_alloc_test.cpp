// Allocation-free invariants of the serving hot paths, asserted by replacing
// global operator new in this test binary and arming the serve/alloc_probe
// seam. These paths are probed after warmup (the trainer and predict-worker
// paths under both projection storages):
//
//   * the trainer drain (OnlineRegHD::update per sample) — the regression
//     this pins: update() used to delegate to predict(), constructing a
//     fresh standardization vector per sample on the trainer thread — and
//     its very first drain, which only the trainer's startup warm-up keeps
//     off the allocator;
//   * the classic predict worker (both admission paths);
//   * the tenant-mode resident predict path (store active);
//   * MultiModelRegressor::predict_batch_into itself, in every cluster ×
//     query × model mode.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "core/encoded.hpp"
#include "core/multi_model.hpp"
#include "core/online.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoding.hpp"
#include "serve/alloc_probe.hpp"
#include "serve/server.hpp"

namespace {

thread_local bool tls_in_probed_path = false;
std::atomic<std::uint64_t> g_probed_allocs{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (tls_in_probed_path) {
    g_probed_allocs.fetch_add(1, std::memory_order_relaxed);
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

namespace reghd::serve {
namespace {

core::OnlineConfig steady_config(
    hdc::ProjectionStorage storage = hdc::ProjectionStorage::kResident,
    std::size_t dim = 128) {
  core::OnlineConfig cfg;
  cfg.reghd.dim = dim;
  cfg.reghd.models = 2;
  cfg.requantize_every = 0;  // requantize rebuilds snapshots; keep the drain pure
  cfg.warmup = 4;
  cfg.encoder.projection_storage = storage;
  return cfg;
}

void arm() {
  g_probed_allocs.store(0, std::memory_order_relaxed);
  set_predict_path_probe(+[](bool entering) { tls_in_probed_path = entering; });
}

std::uint64_t disarm() {
  set_predict_path_probe(nullptr);
  return g_probed_allocs.load(std::memory_order_relaxed);
}

void expect_trainer_drain_allocation_free(hdc::ProjectionStorage storage) {
  const data::Dataset d = data::make_friedman1(256, 8);
  ServeConfig sc;
  sc.shards = 1;
  sc.publish_every_updates = 0;   // publishes allocate by design…
  sc.publish_interval_ms = 0.0;   // …so keep them out of the window
  Server server(sc, steady_config(storage), d.num_features());
  server.start();

  // Warmup: grow update()'s member scratch and the one-reading encode arena.
  for (std::size_t i = 0; i < 32; ++i) {
    while (!server.try_train(0, d.row(i), d.target(i))) {
      std::this_thread::yield();
    }
  }
  while (server.train_applied(0) < 32) {
    std::this_thread::yield();
  }

  arm();
  for (std::size_t i = 32; i < 160; ++i) {
    while (!server.try_train(0, d.row(i % d.size()), d.target(i % d.size()))) {
      std::this_thread::yield();
    }
  }
  while (server.train_applied(0) < 160) {
    std::this_thread::yield();
  }
  const std::uint64_t allocs = disarm();
  server.stop();
  EXPECT_EQ(allocs, 0U) << "trainer drain allocated on the steady-state path";
}

TEST(ServeAllocTest, TrainerDrainIsAllocationFreeAfterWarmup) {
  expect_trainer_drain_allocation_free(hdc::ProjectionStorage::kResident);
}

TEST(ServeAllocTest, TrainerDrainIsAllocationFreeAfterWarmupRematerialized) {
  // update() encodes through the shared encoder's stored projection.
  expect_trainer_drain_allocation_free(hdc::ProjectionStorage::kRematerialized);
}

TEST(ServeAllocTest, TrainerFirstDrainIsAllocationFreeAfterPrewarm) {
  // No warmup traffic: the probe is armed before the trainer's first drain.
  // A bootstrapped learner already holds update()'s member scratch, so only
  // thread_local state could allocate — the fused query's scratch or, for
  // a rematerialized projection over the encoder's storage budget, the
  // encode's weight-tile scratch — and the trainer's warm-up must have grown
  // all of them before its first drain.
  const data::Dataset d = data::make_friedman1(256, 8);
  const std::size_t over_budget_dim =
      hdc::RffProjectionEncoder::kRematCacheBytes / (sizeof(double) * d.num_features()) +
      100;
  const std::vector<std::pair<hdc::ProjectionStorage, std::size_t>> shapes = {
      {hdc::ProjectionStorage::kResident, 128},
      {hdc::ProjectionStorage::kRematerialized, 128},
      {hdc::ProjectionStorage::kRematerialized, over_budget_dim}};
  for (const auto& [storage, dim] : shapes) {
    core::OnlineRegHD learner(steady_config(storage, dim), d.num_features());
    for (std::size_t i = 0; i < 64; ++i) {
      learner.update(d.row(i), d.target(i));
    }
    ServeConfig sc;
    sc.shards = 1;
    sc.publish_every_updates = 0;
    sc.publish_interval_ms = 0.0;
    Server server(sc, steady_config(storage, dim), d.num_features());
    server.bootstrap(0, learner);
    arm();
    server.start();
    for (std::size_t i = 64; i < 128; ++i) {
      while (!server.try_train(0, d.row(i), d.target(i))) {
        std::this_thread::yield();
      }
    }
    while (server.train_applied(0) < 64) {
      std::this_thread::yield();
    }
    const std::uint64_t allocs = disarm();
    server.stop();
    EXPECT_EQ(allocs, 0U) << hdc::to_string(storage) << " D = " << dim
                          << ": the trainer's first drain allocated";
  }
}

void expect_predict_worker_allocation_free(hdc::ProjectionStorage storage) {
  const data::Dataset d = data::make_friedman1(256, 8);
  core::OnlineRegHD learner(steady_config(storage), d.num_features());
  for (std::size_t i = 0; i < 64; ++i) {
    learner.update(d.row(i), d.target(i));
  }
  ServeConfig sc;
  sc.shards = 1;
  sc.batch_threshold = 4;
  Server server(sc, steady_config(storage), d.num_features());
  server.bootstrap(0, learner);
  server.start();

  const auto drive = [&](std::size_t inflight, std::size_t rounds) {
    std::vector<RequestSlot> slots(inflight);
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < inflight; ++i) {
        while (!server.try_predict(i, d.row((r + i) % d.size()), &slots[i])) {
          std::this_thread::yield();
        }
      }
      for (std::size_t i = 0; i < inflight; ++i) {
        slots[i].wait();
        ASSERT_EQ(slots[i].error, 0U);
      }
    }
  };

  drive(32, 4);  // warm both admission paths
  drive(1, 4);
  arm();
  drive(32, 8);  // batched bank-scan groups
  drive(1, 8);   // fused single-query groups
  const std::uint64_t allocs = disarm();
  server.stop();
  EXPECT_EQ(allocs, 0U) << "predict worker allocated on a probed path";
}

TEST(ServeAllocTest, PredictWorkerPathsAreAllocationFree) {
  expect_predict_worker_allocation_free(hdc::ProjectionStorage::kResident);
}

TEST(ServeAllocTest, PredictWorkerPathsAreAllocationFreeRematerialized) {
  // Both admission paths encode through the worker's regenerated projection.
  expect_predict_worker_allocation_free(hdc::ProjectionStorage::kRematerialized);
}

TEST(ServeAllocTest, TenantResidentPredictPathIsAllocationFree) {
  const data::Dataset d = data::make_friedman1(256, 8);
  TenantStoreConfig tc;
  tc.resident_budget = 8;
  tc.tiered_dims = false;
  ServeConfig sc;
  sc.shards = 1;
  sc.tenant = tc;
  Server server(sc, steady_config(), d.num_features());
  server.start();

  // Warm four tenants well past residency and the fused path's scratch.
  std::vector<RequestSlot> slots(4);
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::uint64_t t = 0; t < 4; ++t) {
      while (!server.try_train(t, d.row(r), d.target(r))) {
        std::this_thread::yield();
      }
      while (!server.try_predict(t, d.row(r), &slots[t])) {
        std::this_thread::yield();
      }
    }
    for (auto& s : slots) {
      s.wait();
    }
  }
  while (server.train_applied(0) < 64) {
    std::this_thread::yield();
  }

  // Probed window: resident hits only (no new tenants, so no activations —
  // the probe brackets exactly the resident predict; the store stays active).
  arm();
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::uint64_t t = 0; t < 4; ++t) {
      while (!server.try_predict(t, d.row(r % d.size()), &slots[t])) {
        std::this_thread::yield();
      }
    }
    for (auto& s : slots) {
      s.wait();
      ASSERT_EQ(s.error, 0U);
    }
  }
  const std::uint64_t allocs = disarm();
  server.stop();
  EXPECT_EQ(allocs, 0U) << "tenant-mode resident predict allocated";
}

// Once prepare_predict_scratch has sized the scratch, the serial batch scan
// allocates nothing, whichever mode the model was trained in, whether it
// scores through its own packed bank or the scratch's re-packed copy, and
// whatever the batch size: a single query, a batch with a leftover query
// tile, and two whole 64-query blocks.
TEST(ServeAllocTest, PredictBatchIntoIsAllocationFreeInEveryMode) {
  const data::Dataset d = data::make_friedman1(128, 8);
  hdc::EncoderConfig enc_cfg;
  enc_cfg.input_dim = d.num_features();
  enc_cfg.dim = 200;
  const auto encoder = hdc::make_encoder(enc_cfg);
  const core::EncodedDataset enc = core::EncodedDataset::from(*encoder, d, 1);
  std::vector<core::EncodedDataset> batches;
  for (const std::size_t b : {1, 5, 128}) {
    std::vector<std::size_t> rows(b);
    for (std::size_t i = 0; i < b; ++i) {
      rows[i] = i;
    }
    batches.push_back(enc.subset(rows));
  }
  std::vector<double> out(enc.size());
  for (const core::ClusterMode cluster :
       {core::ClusterMode::kFullPrecision, core::ClusterMode::kQuantized,
        core::ClusterMode::kNaiveBinary}) {
    for (const core::QueryPrecision query :
         {core::QueryPrecision::kReal, core::QueryPrecision::kBinary}) {
      for (const core::ModelPrecision model :
           {core::ModelPrecision::kReal, core::ModelPrecision::kBinary,
            core::ModelPrecision::kTernary}) {
        core::RegHDConfig cfg;
        cfg.dim = enc_cfg.dim;
        cfg.models = 3;
        cfg.cluster_mode = cluster;
        cfg.query_precision = query;
        cfg.model_precision = model;
        core::MultiModelRegressor reg(cfg);
        for (std::size_t i = 0; i < enc.size(); ++i) {
          reg.train_step(enc.sample(i), enc.target(i));
        }
        reg.requantize();
        core::MultiModelRegressor::PredictScratch scratch;
        reg.prepare_predict_scratch(scratch);
        arm();
        predict_path_probe()(true);
        for (const core::EncodedDataset& batch : batches) {
          reg.predict_batch_into(batch, out, scratch);
        }
        predict_path_probe()(false);
        EXPECT_EQ(disarm(), 0U) << to_string(cluster) << " "
                                << cfg.prediction_mode().to_string();
      }
    }
  }
}

}  // namespace
}  // namespace reghd::serve
