// TenantStore semantics: residency budget + LRU order, checkpoint-backed
// eviction with bit-identical reactivation (the PR 2 guarantee applied per
// tenant), capacity-model tier sizing and promotion, spill budgets, disk
// spill, and the Server tenant-mode integration.
#include "serve/tenant_store.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/online.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoding.hpp"
#include "hdc/kernel_backend.hpp"
#include "obs/telemetry.hpp"
#include "serve/server.hpp"
#include "util/fast_trig.hpp"
#include "util/random.hpp"

namespace reghd::serve {
namespace {

core::OnlineConfig base_online(std::size_t dim = 256) {
  core::OnlineConfig cfg;
  cfg.reghd.dim = dim;
  cfg.reghd.models = 2;
  cfg.requantize_every = 32;
  return cfg;
}

/// Flat-dim store config (strict lifetime bit-identity: no tier rebuilds).
TenantStoreConfig flat_config(std::size_t budget) {
  TenantStoreConfig tc;
  tc.resident_budget = budget;
  tc.tiered_dims = false;
  return tc;
}

TEST(ServeTenantStoreTest, ResidentBudgetHoldsAndLruTailEvictsFirst) {
  const data::Dataset d = data::make_friedman1(32, 6);
  TenantStore store(flat_config(4), base_online(), d.num_features());

  for (std::uint64_t t = 0; t < 4; ++t) {
    (void)store.update(t, d.row(t), d.target(t));
  }
  EXPECT_EQ(store.resident_count(), 4U);
  EXPECT_EQ(store.stats().evictions, 0U);

  // Re-touch tenant 0 so tenant 1 is the LRU tail, then overflow the budget.
  (void)store.predict(0, d.row(0));
  (void)store.update(4, d.row(4), d.target(4));
  EXPECT_EQ(store.resident_count(), 4U);
  EXPECT_EQ(store.stats().evictions, 1U);
  EXPECT_FALSE(store.is_resident(1));  // the least recently used went first
  EXPECT_TRUE(store.is_resident(0));
  EXPECT_TRUE(store.is_resident(4));

  const TenantStoreStats s = store.stats();
  EXPECT_EQ(s.activations, 5U);
  EXPECT_EQ(s.spilled, 1U);
  EXPECT_GT(s.spill_bytes, 0U);
  EXPECT_GT(s.resident_bytes, 0U);
}

TEST(ServeTenantStoreTest, EvictedTenantResumesBitIdentically) {
  const data::Dataset d = data::make_friedman1(128, 6);
  const core::OnlineConfig cfg = base_online();
  TenantStore store(flat_config(2), cfg, d.num_features());

  // Control: an identical never-evicted learner driven with the same
  // sequence as tenant 7.
  core::OnlineRegHD control(cfg, d.num_features());
  for (std::size_t i = 0; i < 40; ++i) {
    const double via_store = store.update(7, d.row(i), d.target(i));
    const double via_control = control.update(d.row(i), d.target(i));
    ASSERT_EQ(via_store, via_control) << "pre-eviction step " << i;
  }

  // Force tenant 7 out through the checkpoint container…
  (void)store.predict(100, d.row(0));
  (void)store.predict(101, d.row(1));
  ASSERT_FALSE(store.is_resident(7));
  ASSERT_GE(store.stats().evictions, 1U);

  // …and back. Every prediction and every continued training step must be
  // bit-identical to the control — residency is invisible to the math.
  for (std::size_t i = 40; i < 80; ++i) {
    ASSERT_EQ(store.predict(7, d.row(i)), control.predict(d.row(i)))
        << "post-reactivation predict " << i;
    ASSERT_EQ(store.update(7, d.row(i), d.target(i)),
              control.update(d.row(i), d.target(i)))
        << "post-reactivation update " << i;
  }
  EXPECT_GE(store.stats().reactivations, 1U);
}

TEST(ServeTenantStoreTest, RepeatedEvictReactivateCyclesStayBitIdentical) {
  const data::Dataset d = data::make_friedman1(96, 6);
  const core::OnlineConfig cfg = base_online();
  TenantStore store(flat_config(1), cfg, d.num_features());  // every switch evicts
  core::OnlineRegHD control(cfg, d.num_features());

  // Alternating tenants with a budget of one: tenant 5 round-trips through
  // the container on every single appearance.
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(store.update(5, d.row(i), d.target(i)),
              control.update(d.row(i), d.target(i)))
        << "cycle " << i;
    (void)store.update(6, d.row(i), 0.0);  // displaces tenant 5
  }
  EXPECT_GE(store.stats().evictions, 64U);
  EXPECT_GE(store.stats().reactivations, 63U);
}

TEST(ServeTenantStoreTest, TierDimsAscendFromCapacityModelAndClampToBase) {
  TenantStoreConfig tc;
  tc.resident_budget = 8;
  tc.tiered_dims = true;
  tc.tier_updates = {64, 512};
  TenantStore store(tc, base_online(2048), 6);

  const std::vector<std::size_t>& dims = store.tier_dims();
  ASSERT_EQ(dims.size(), 3U);
  EXPECT_LT(dims[0], 2048U);       // cold tier genuinely smaller
  EXPECT_EQ(dims[0] % 64, 0U);     // word-aligned
  EXPECT_GE(dims[0], 64U);
  EXPECT_LE(dims[0], dims[1]);     // monotone
  EXPECT_EQ(dims.back(), 2048U);   // hot tier = base configuration

  EXPECT_EQ(store.tier_of(0), 0U);
  EXPECT_EQ(store.tier_of(63), 0U);
  EXPECT_EQ(store.tier_of(64), 1U);
  EXPECT_EQ(store.tier_of(100000), 2U);
}

TEST(ServeTenantStoreTest, TierDimsPinnedAtTheServingShapes) {
  // The capacity query at T = 0.8, ε = 0.05 (Eqs. 3–4): 64 patterns need
  // D = 271, rounded up to 320; 512 patterns need 2165, which every base
  // below 2176 clamps. Base D = 512 is perfbench's serve_tenants shape.
  for (const auto& [base, want] :
       {std::pair<std::size_t, std::vector<std::size_t>>{512, {320, 512, 512}},
        std::pair<std::size_t, std::vector<std::size_t>>{2048, {320, 2048, 2048}}}) {
    TenantStoreConfig tc;
    tc.tier_updates = {64, 512};
    const TenantStore store(tc, base_online(base), 6);
    EXPECT_EQ(store.tier_dims(), want) << "base D = " << base;
  }
}

// ROADMAP item 8(a): an RFF encoder at a tier's D_t is an exact prefix of
// the encoder of the same seed and F at the base D. Weight rows are
// counter-seeded per row and the phases are one sequential stream, so the
// first D_t components of every encoding agree bit for bit.

/// Tier dims of the two serving shapes (base D = 512 and 2048), each paired
/// with its base D, plus ragged and word-sized D against 2048.
std::vector<std::pair<std::size_t, std::size_t>> prefix_dims() {
  std::vector<std::pair<std::size_t, std::size_t>> dims;
  for (const std::size_t base : {512, 2048}) {
    TenantStoreConfig tc;
    tc.tier_updates = {64, 512};
    const TenantStore store(tc, base_online(base), 6);
    for (const std::size_t d : store.tier_dims()) {
      dims.emplace_back(d, base);
    }
  }
  for (const std::size_t d : {64, 1000, 1024, 2047}) {
    dims.emplace_back(d, 2048);
  }
  return dims;
}

TEST(RffTierPrefixTest, TierEncoderIsAnExactPrefixOfTheBaseEncoder) {
  // Through the encoder itself, on the active kernel table, with the auto
  // bandwidth (1/√F, independent of D) and an explicit one.
  const data::Dataset d = data::make_friedman1(16, 6);
  for (const double stddev : {0.0, 0.7}) {
    for (const auto& [dim, base] : prefix_dims()) {
      hdc::EncoderConfig cfg = base_online().encoder;
      cfg.input_dim = d.num_features();
      cfg.projection_stddev = stddev;
      cfg.dim = base;
      const auto full = hdc::make_encoder(cfg);
      cfg.dim = dim;
      const auto tier = hdc::make_encoder(cfg);
      for (std::size_t i = 0; i < d.size(); ++i) {
        const hdc::EncodedSample a = tier->encode(d.row(i));
        const hdc::EncodedSample b = full->encode(d.row(i));
        std::size_t mismatches = 0;
        for (std::size_t j = 0; j < dim; ++j) {
          mismatches += std::bit_cast<std::uint64_t>(a.real[j]) !=
                            std::bit_cast<std::uint64_t>(b.real[j]) ||
                        a.binary.bit(j) != b.binary.bit(j);
        }
        EXPECT_EQ(mismatches, 0U) << "D = " << dim << " vs " << base << ", stddev "
                                  << stddev << ", row " << i;
      }
    }
  }
}

TEST(RffTierPrefixTest, WeightsAndProjectionArePrefixesOnEveryTable) {
  // The two kernels under every RFF encode, through each table this host
  // runs: the weights of hyperspace rows [0, D_t) and the projected, trig-
  // mapped components of a row block at D_t equal the first D_t at D_max.
  constexpr std::size_t kF = 6;
  constexpr std::size_t kRows = 4;
  constexpr std::uint64_t kSeed = 0x5EED;
  constexpr double kStddev = 0.4;
  util::Rng rng(11);
  std::vector<double> x(kRows * kF);
  for (double& v : x) {
    v = rng.uniform(-2.0, 2.0);
  }
  std::vector<double> phase(2048);
  std::vector<double> sin_phase(2048);
  for (std::size_t j = 0; j < phase.size(); ++j) {
    phase[j] = rng.phase();
    sin_phase[j] = util::fast_sin(phase[j]);
  }
  const hdc::BackendList list = hdc::available_backends();
  for (std::size_t t = 0; t < list.count; ++t) {
    const hdc::KernelBackend& kb = *list.tables[t];
    for (const auto& [dim, base] : prefix_dims()) {
      std::vector<double> w_full(kF * base);
      std::vector<double> w_tier(kF * dim);
      kb.rff_rematerialize(kSeed, kStddev, 0, base, kF, w_full.data(), base);
      kb.rff_rematerialize(kSeed, kStddev, 0, dim, kF, w_tier.data(), dim);
      std::vector<double> c_full(kRows * base);
      std::vector<double> c_tier(kRows * dim);
      kb.rff_project_map(x.data(), kF, w_full.data(), base, phase.data(), sin_phase.data(),
                         c_full.data(), base, kRows, kF, base);
      kb.rff_project_map(x.data(), kF, w_tier.data(), dim, phase.data(), sin_phase.data(),
                         c_tier.data(), dim, kRows, kF, dim);
      std::size_t mismatches = 0;
      for (std::size_t j = 0; j < dim; ++j) {
        for (std::size_t k = 0; k < kF; ++k) {
          mismatches += std::bit_cast<std::uint64_t>(w_tier[k * dim + j]) !=
                        std::bit_cast<std::uint64_t>(w_full[k * base + j]);
        }
        for (std::size_t r = 0; r < kRows; ++r) {
          mismatches += std::bit_cast<std::uint64_t>(c_tier[r * dim + j]) !=
                        std::bit_cast<std::uint64_t>(c_full[r * base + j]);
        }
      }
      EXPECT_EQ(mismatches, 0U) << kb.name << ": D = " << dim << " vs " << base;
    }
  }
}

/// Bytes of every plane of `learner` that scales with D: the (2k)×D
/// accumulator arena, each model's sign and ternary-mask snapshots, each
/// cluster's sign snapshot and the packed bank's sign and mask planes.
std::size_t d_scaled_bytes(const core::OnlineRegHD& learner) {
  const core::MultiModelRegressor& m = learner.model();
  std::size_t words = m.packed_bank().signs.size() + m.packed_bank().masks.size();
  std::size_t doubles = 0;
  for (std::size_t i = 0; i < m.num_models(); ++i) {
    words += m.model(i).binary.word_count() + m.model(i).ternary_mask.word_count() +
             m.cluster(i).binary.word_count();
    doubles += m.cluster_accumulator(i).size() + m.model_accumulator(i).size();
  }
  return words * sizeof(std::uint64_t) + doubles * sizeof(double);
}

TEST(ServeTenantStoreTest, ResidentBytesCountEveryPackedPlaneAtItsWordSize) {
  // One tenant walked through every tier (the hot tier, D = 1000, ends in a
  // ragged word): the estimate must be the learner's D-scaled planes at
  // their real size plus the fixed overhead — Welford statistics (24 B per
  // feature) and 512 B — for real models and for binary ones, whose rows
  // also ride in the packed bank.
  const data::Dataset d = data::make_friedman1(8, 6);
  for (const core::ModelPrecision precision :
       {core::ModelPrecision::kReal, core::ModelPrecision::kBinary}) {
    TenantStoreConfig tc;
    tc.resident_budget = 4;
    tc.tiered_dims = true;
    tc.tier_updates = {1, 2};
    core::OnlineConfig online = base_online(1000);
    online.reghd.model_precision = precision;
    TenantStore store(tc, online, d.num_features());
    ASSERT_LT(store.tier_dims()[0], store.tier_dims()[2]);
    for (std::size_t tier = 0; tier < 3; ++tier) {
      if (tier > 0) {
        (void)store.update(5, d.row(tier), d.target(tier));
      }
      const core::OnlineRegHD& learner = store.activate(5);
      ASSERT_EQ(learner.config().reghd.dim, store.tier_dims()[tier]);
      EXPECT_EQ(store.stats().resident_bytes,
                d_scaled_bytes(learner) + d.num_features() * 24 + 512)
          << "tier " << tier << ", D = " << store.tier_dims()[tier]
          << ", model precision " << core::to_string(precision);
    }
  }
}

TEST(ServeTenantStoreTest, PromotionGrowsDimAndCarriesStatistics) {
  const data::Dataset d = data::make_friedman1(128, 6);
  TenantStoreConfig tc;
  tc.resident_budget = 4;
  tc.tiered_dims = true;
  tc.tier_updates = {64};
  TenantStore store(tc, base_online(512), d.num_features());
  ASSERT_LT(store.tier_dims()[0], 512U);

  for (std::size_t i = 0; i < 63; ++i) {
    (void)store.update(9, d.row(i % d.size()), d.target(i % d.size()));
  }
  EXPECT_EQ(store.activate(9).config().reghd.dim, store.tier_dims()[0]);
  EXPECT_EQ(store.stats().promotions, 0U);

  (void)store.update(9, d.row(63), d.target(63));  // crosses the boundary
  const core::OnlineRegHD& hot = store.activate(9);
  EXPECT_EQ(hot.config().reghd.dim, 512U);
  EXPECT_EQ(store.stats().promotions, 1U);
  // The running statistics and sample count carried verbatim.
  EXPECT_EQ(hot.samples_seen(), 64U);
  EXPECT_EQ(hot.target_stats().count(), 64U);
  EXPECT_EQ(hot.feature_stats()[0].count(), 64U);
}

TEST(ServeTenantStoreTest, SpillBudgetDiscardsOldestEvictions) {
  const data::Dataset d = data::make_friedman1(32, 6);
  TenantStoreConfig tc = flat_config(1);
  tc.spill_budget_bytes = 1;  // nothing survives spilling
  TenantStore store(tc, base_online(64), d.num_features());

  (void)store.update(1, d.row(0), d.target(0));
  (void)store.update(2, d.row(1), d.target(1));  // evicts 1 → discarded
  (void)store.update(3, d.row(2), d.target(2));  // evicts 2 → discarded
  const TenantStoreStats s = store.stats();
  EXPECT_GE(s.spill_discards, 2U);
  EXPECT_EQ(s.spilled, 0U);
  EXPECT_EQ(s.spill_bytes, 0U);

  // A discarded tenant restarts cold — loudly counted, never wrong.
  EXPECT_EQ(store.activate(1).samples_seen(), 0U);
}

TEST(ServeTenantStoreTest, DiskSpillPersistsAndReactivatesBitIdentically) {
  namespace fs = std::filesystem;
  const data::Dataset d = data::make_friedman1(64, 6);
  const core::OnlineConfig cfg = base_online();
  const fs::path dir = fs::temp_directory_path() / "reghd_tenant_spill_test";
  fs::remove_all(dir);

  TenantStoreConfig tc = flat_config(1);
  tc.spill_dir = dir.string();
  TenantStore store(tc, cfg, d.num_features());
  core::OnlineRegHD control(cfg, d.num_features());

  for (std::size_t i = 0; i < 30; ++i) {
    (void)store.update(42, d.row(i), d.target(i));
    (void)control.update(d.row(i), d.target(i));
  }
  (void)store.predict(43, d.row(0));  // evicts 42 to disk
  EXPECT_TRUE(fs::exists(dir / "tenant_42.reghd"));

  for (std::size_t i = 30; i < 50; ++i) {
    ASSERT_EQ(store.predict(42, d.row(i)), control.predict(d.row(i)));
    ASSERT_EQ(store.update(42, d.row(i), d.target(i)),
              control.update(d.row(i), d.target(i)));
  }

  // flush() is the persistence pass: everything resident lands on disk.
  store.flush();
  EXPECT_EQ(store.resident_count(), 0U);
  EXPECT_TRUE(fs::exists(dir / "tenant_42.reghd"));
  EXPECT_TRUE(fs::exists(dir / "tenant_43.reghd"));
  fs::remove_all(dir);
}

TEST(ServeTenantStoreTest, CorruptSpillFailsOneRequestAndLeaksNoSlot) {
  namespace fs = std::filesystem;
  const data::Dataset d = data::make_friedman1(64, 6);
  const fs::path dir = fs::temp_directory_path() / "reghd_tenant_corrupt_spill";
  fs::remove_all(dir);

  TenantStoreConfig tc = flat_config(2);
  tc.spill_dir = dir.string();
  TenantStore store(tc, base_online(), d.num_features());
  for (std::size_t i = 0; i < 20; ++i) {
    (void)store.update(1, d.row(i), d.target(i));
  }
  (void)store.predict(2, d.row(0));
  (void)store.predict(3, d.row(1));  // evicts tenant 1 to disk
  ASSERT_FALSE(store.is_resident(1));
  {
    std::ofstream clobber(dir / "tenant_1.reghd", std::ios::binary | std::ios::trunc);
    clobber << "not a checkpoint";
  }

  // Retry the damaged tenant more often than there are slots. Only the first
  // request meets the damaged blob; it is quarantined and the key restarts
  // cold instead of failing (and leaking a slot) on every retry.
  std::size_t failures = 0;
  for (std::size_t r = 0; r < 2 * tc.resident_budget + 1; ++r) {
    try {
      (void)store.predict(1, d.row(r));
    } catch (const std::exception&) {
      ++failures;
    }
  }
  EXPECT_EQ(failures, 1U);
  EXPECT_TRUE(fs::exists(dir / "tenant_1.reghd.corrupt"));
  EXPECT_EQ(store.activate(1).samples_seen(), 0U);

  for (std::uint64_t key = 2; key < 8; ++key) {
    EXPECT_NO_THROW((void)store.predict(key, d.row(key))) << "key " << key;
  }
  EXPECT_EQ(store.resident_count(), tc.resident_budget);
  const TenantStoreStats s = store.stats();
  EXPECT_EQ(s.reactivate_failures, 1U);
  EXPECT_EQ(s.activations + s.reactivations + s.reactivate_failures, s.misses);
  fs::remove_all(dir);
}

TEST(ServeTenantStoreTest, ServerTenantModeLearnsPerTenantModels) {
  const std::size_t nf = 6;
  ServeConfig sc;
  sc.shards = 2;
  sc.tenant = flat_config(64);
  core::OnlineConfig cfg = base_online(128);
  cfg.warmup = 4;
  Server server(sc, cfg, nf);
  server.start();

  // Two tenants with opposite target functions on the same features: only
  // per-tenant models can satisfy both.
  std::vector<double> row(nf, 0.0);
  for (std::size_t i = 0; i < 400; ++i) {
    for (std::size_t f = 0; f < nf; ++f) {
      row[f] = std::sin(static_cast<double>(i * (f + 1)));
    }
    const double y = row[0] + 0.5 * row[1];
    while (!server.try_train(100, row, y)) {
      std::this_thread::yield();
    }
    while (!server.try_train(200, row, -y)) {
      std::this_thread::yield();
    }
  }
  const std::size_t s100 = server.shard_of(100);
  const std::size_t s200 = server.shard_of(200);
  std::uint64_t applied = 0;
  while (applied < 800) {
    applied = server.train_applied(s100);
    if (s200 != s100) {
      applied += server.train_applied(s200);
    }
    std::this_thread::yield();
  }

  for (std::size_t f = 0; f < nf; ++f) {
    row[f] = std::sin(static_cast<double>(7 * (f + 1)));
  }
  const double p_pos = server.predict(100, row);
  const double p_neg = server.predict(200, row);
  // Per-tenant models must reproduce each tenant's sign, not a blend (the
  // query point was in both training streams; want ≈ ±1.15).
  EXPECT_GT(p_pos, 0.0);
  EXPECT_LT(p_neg, 0.0);
  EXPECT_GT(p_pos - p_neg, 1.0);

  server.stop();
  std::uint64_t activations = 0;
  for (std::size_t s = 0; s < sc.shards; ++s) {
    activations += server.tenant_stats(s).activations;
  }
  EXPECT_EQ(activations, 2U);
  EXPECT_EQ(server.snapshot(s100), nullptr);  // tenant mode publishes none
}

TEST(ServeTenantStoreTest, ServerTenantModeMatchesStandaloneStoreBitForBit) {
  const data::Dataset d = data::make_friedman1(128, 6);
  const core::OnlineConfig cfg = base_online(128);

  ServeConfig sc;
  sc.shards = 1;
  sc.tenant = flat_config(2);  // small budget: servers evict mid-run too
  Server server(sc, cfg, d.num_features());
  server.start();
  TenantStore reference(flat_config(2), cfg, d.num_features());

  // Same single-producer sequence into both: the server's combined drain
  // thread applies it in FIFO order, so state must match bit for bit.
  for (std::size_t i = 0; i < d.size(); ++i) {
    const std::uint64_t key = 1 + (i % 3);
    while (!server.try_train(key, d.row(i), d.target(i))) {
      std::this_thread::yield();
    }
    (void)reference.update(key, d.row(i), d.target(i));
  }
  while (server.train_applied(0) < d.size()) {
    std::this_thread::yield();
  }
  for (std::uint64_t key = 1; key <= 3; ++key) {
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(server.predict(key, d.row(i)), reference.predict(key, d.row(i)))
          << "tenant " << key << " row " << i;
    }
  }
  server.stop();
}

TEST(ServeTenantStoreTest, NonFiniteSubmissionsActivateNoTenant) {
  // A NaN / ±Inf feature or target is refused at admission, before the
  // shard thread could look its key up: no tenant activates, the store's
  // hit and miss counts do not move, and serve_nonfinite_rejects counts
  // every refusal.
  const data::Dataset d = data::make_friedman1(32, 6);
  ServeConfig sc;
  sc.shards = 1;
  sc.tenant = flat_config(4);
  obs::set_enabled(true);
  obs::reset();
  Server server(sc, base_online(128), d.num_features());
  server.start();
  while (!server.try_train(1, d.row(0), d.target(0))) {
    std::this_thread::yield();
  }
  while (server.train_applied(0) < 1) {
    std::this_thread::yield();
  }
  const TenantStoreStats before = server.tenant_stats(0);

  std::vector<double> bad_row(d.row(1).begin(), d.row(1).end());
  bad_row[0] = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> inf_row(d.row(1).begin(), d.row(1).end());
  inf_row[5] = -std::numeric_limits<double>::infinity();
  RequestSlot slot;
  EXPECT_THROW((void)server.try_train(2, bad_row, 1.0), std::invalid_argument);
  EXPECT_THROW((void)server.try_train(2, d.row(1), std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW((void)server.try_train(1, d.row(1), std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW((void)server.try_predict(3, bad_row, &slot), std::invalid_argument);
  EXPECT_THROW((void)server.predict(3, inf_row), std::invalid_argument);

  // One more finite sample for tenant 1: once it is applied, anything
  // queued ahead of it on the train ring has been consumed too.
  while (!server.try_train(1, d.row(1), d.target(1))) {
    std::this_thread::yield();
  }
  while (server.train_applied(0) < 2) {
    std::this_thread::yield();
  }
  const TenantStoreStats after = server.tenant_stats(0);
  server.stop();
  const obs::TelemetrySnapshot telemetry = obs::snapshot();
  obs::set_enabled(false);

  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits + 1);  // the finite tenant-1 sample only
  EXPECT_EQ(after.activations, 1U);
  EXPECT_EQ(server.train_applied(0), 2U);
  EXPECT_EQ(telemetry.counter(obs::Counter::kServeNonfiniteRejects), 5U);
}

TEST(ServeTenantStoreTest, StopFlushesTenantsToSpillDirAndTheyRecover) {
  namespace fs = std::filesystem;
  const data::Dataset d = data::make_friedman1(64, 6);
  const core::OnlineConfig cfg = base_online(128);
  const fs::path dir = fs::temp_directory_path() / "reghd_tenant_server_spill";
  fs::remove_all(dir);

  TenantStoreConfig tc = flat_config(16);
  tc.spill_dir = dir.string();
  ServeConfig sc;
  sc.shards = 1;
  sc.tenant = tc;

  core::OnlineRegHD control(cfg, d.num_features());
  {
    Server server(sc, cfg, d.num_features());
    server.start();
    for (std::size_t i = 0; i < d.size(); ++i) {
      while (!server.try_train(77, d.row(i), d.target(i))) {
        std::this_thread::yield();
      }
      (void)control.update(d.row(i), d.target(i));
    }
    while (server.train_applied(0) < d.size()) {
      std::this_thread::yield();
    }
    server.stop();  // flush: tenant 77 lands under <dir>/shard_0
  }
  EXPECT_TRUE(fs::exists(dir / "shard_0" / "tenant_77.reghd"));

  Server revived(sc, cfg, d.num_features());
  revived.start();
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(revived.predict(77, d.row(i)), control.predict(d.row(i)))
        << "revived tenant prediction " << i;
  }
  revived.stop();
  fs::remove_all(dir);
}

TEST(ServeTenantStoreTest, FailedSpillWritesAreCountedAndTheShardThreadSurvives) {
  // Budget 1 with two alternating keys: every switch evicts, and with the
  // spill directory removed under the running server every eviction's spill
  // write throws. The shard thread must count those failures, keep
  // completing predicts, and shut down normally.
  namespace fs = std::filesystem;
  const data::Dataset d = data::make_friedman1(64, 6);
  const fs::path dir = fs::temp_directory_path() / "reghd_tenant_spill_removed";
  fs::remove_all(dir);

  obs::set_enabled(true);
  obs::reset();
  TenantStoreConfig tc = flat_config(1);
  tc.spill_dir = dir.string();
  ServeConfig sc;
  sc.shards = 1;
  sc.tenant = tc;
  constexpr std::size_t kSamples = 32;
  {
    Server server(sc, base_online(128), d.num_features());
    server.start();
    fs::remove_all(dir);
    for (std::size_t i = 0; i < kSamples; ++i) {
      while (!server.try_train(1 + i % 2, d.row(i), d.target(i))) {
        std::this_thread::yield();
      }
    }
    RequestSlot slot;
    for (std::size_t r = 0; r < 8; ++r) {
      const std::uint64_t key = 1 + r % 2;
      while (!server.try_predict(key, d.row(r), &slot)) {
        std::this_thread::yield();
      }
      slot.wait();
      if (key == 1) {
        EXPECT_EQ(slot.error, 0U) << "resident tenant predict " << r;
      }
    }
    server.stop();
    // Tenant 1 took the only slot and kept it; every tenant-2 sample failed.
    EXPECT_EQ(server.train_applied(0), kSamples / 2);
  }
  EXPECT_EQ(obs::snapshot().counter(obs::Counter::kServeTrainErrors), kSamples / 2);
  obs::set_enabled(false);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace reghd::serve
