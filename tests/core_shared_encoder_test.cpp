// One immutable encoder per configuration: learners built apart from one
// OnlineConfig — by hand, by a TenantStore, from any thread — hold the same
// hdc::Encoder object, any config difference gets its own (storage only
// where it changes what is stored), and an encoder dies with its last holder
// and comes back bit-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/online.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoding.hpp"
#include "serve/tenant_store.hpp"

namespace reghd::core {
namespace {

constexpr std::size_t kFeatures = 10;  // friedman1's width

OnlineConfig remat_config(std::size_t dim = 512) {
  OnlineConfig cfg;
  cfg.reghd.dim = dim;
  cfg.reghd.models = 2;
  cfg.encoder.seed = 0x5EA4ED;
  cfg.encoder.projection_storage = hdc::ProjectionStorage::kRematerialized;
  return cfg;
}

TEST(SharedEncoderTest, LearnersBuiltApartShareOneEncoder) {
  const OnlineConfig cfg = remat_config();
  const OnlineRegHD a(cfg, kFeatures);
  const OnlineRegHD b(cfg, kFeatures);
  EXPECT_EQ(&a.encoder(), &b.encoder());
}

TEST(SharedEncoderTest, AnyConfigDifferenceGetsADistinctEncoder) {
  const OnlineConfig cfg = remat_config();
  const OnlineRegHD base(cfg, kFeatures);

  OnlineConfig seed = cfg;
  seed.encoder.seed += 1;
  OnlineConfig dim = cfg;
  dim.reghd.dim = 640;
  OnlineConfig stddev = cfg;
  stddev.encoder.projection_stddev = 0.5;
  for (const OnlineConfig& other : {seed, dim, stddev}) {
    const OnlineRegHD learner(other, kFeatures);
    EXPECT_NE(&learner.encoder(), &base.encoder());
  }
  const OnlineRegHD narrower(cfg, kFeatures - 1);
  EXPECT_NE(&narrower.encoder(), &base.encoder());
}

TEST(SharedEncoderTest, StorageSplitsEncodersOnlyOverTheBudget) {
  // D = 512: the rematerialized projection (40 KiB) is stored anyway, so
  // both storages get the one resident encoder; the learner keeps its knob.
  {
    const OnlineConfig cfg = remat_config(512);
    OnlineConfig resident_cfg = cfg;
    resident_cfg.encoder.projection_storage = hdc::ProjectionStorage::kResident;
    const OnlineRegHD remat(cfg, kFeatures);
    const OnlineRegHD resident(resident_cfg, kFeatures);
    EXPECT_EQ(&remat.encoder(), &resident.encoder());
    EXPECT_EQ(remat.encoder().config().projection_storage,
              hdc::ProjectionStorage::kResident);
    EXPECT_EQ(remat.config().encoder.projection_storage,
              hdc::ProjectionStorage::kRematerialized);
  }
  // D = 2^15: F·D·8 = 2.5 MiB is over kRematCacheBytes, so each storage is
  // its own encoder, and switching one learner's storage moves it between
  // them.
  const OnlineConfig cfg = remat_config(1U << 15);
  OnlineConfig resident_cfg = cfg;
  resident_cfg.encoder.projection_storage = hdc::ProjectionStorage::kResident;
  const OnlineRegHD base(cfg, kFeatures);
  const OnlineRegHD resident(resident_cfg, kFeatures);
  EXPECT_NE(&base.encoder(), &resident.encoder());
  EXPECT_EQ(base.encoder().config().projection_storage,
            hdc::ProjectionStorage::kRematerialized);
  OnlineRegHD switched(cfg, kFeatures);
  switched.set_projection_storage(hdc::ProjectionStorage::kResident);
  EXPECT_EQ(&switched.encoder(), &resident.encoder());
  switched.set_projection_storage(hdc::ProjectionStorage::kRematerialized);
  EXPECT_EQ(&switched.encoder(), &base.encoder());
}

TEST(SharedEncoderTest, RebuiltAfterEveryHolderIsGoneEncodesBitIdentically) {
  const data::Dataset d = data::make_friedman1(8, 3);
  for (const std::size_t dim : {512U, 2048U, 1U << 15}) {  // the last is over budget
    OnlineConfig cfg = remat_config(dim);
    cfg.encoder.input_dim = kFeatures;
    cfg.encoder.dim = dim;
    std::vector<hdc::EncodedSample> before;
    {
      const OnlineRegHD learner(cfg, kFeatures);
      for (std::size_t i = 0; i < d.size(); ++i) {
        before.push_back(learner.encoder().encode(d.row(i)));
      }
    }
    const std::weak_ptr<const hdc::Encoder> dropped = hdc::shared_encoder(cfg.encoder);
    EXPECT_TRUE(dropped.expired()) << "dim " << dim;  // the registry holds no owner

    const OnlineRegHD rebuilt(cfg, kFeatures);
    for (std::size_t i = 0; i < d.size(); ++i) {
      const hdc::EncodedSample again = rebuilt.encoder().encode(d.row(i));
      EXPECT_EQ(again.real, before[i].real) << "dim " << dim << " row " << i;
      EXPECT_EQ(again.binary, before[i].binary) << "dim " << dim << " row " << i;
    }
  }
}

TEST(SharedEncoderTest, TenantsOfOneTierShareOneEncoder) {
  serve::TenantStoreConfig tc;
  tc.resident_budget = 4;
  serve::TenantStore store(tc, remat_config(1024), kFeatures);
  const hdc::Encoder& first = store.activate(1).encoder();
  const hdc::Encoder& second = store.activate(2).encoder();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(store.activate(1).config().reghd.dim, store.activate(2).config().reghd.dim);
}

TEST(SharedEncoderTest, ConcurrentConstructionYieldsOneObject) {
  constexpr std::size_t kThreads = 8;
  const OnlineConfig cfg = remat_config(4096);
  std::vector<const hdc::Encoder*> seen(kThreads, nullptr);
  std::vector<std::unique_ptr<OnlineRegHD>> learners(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      learners[t] = std::make_unique<OnlineRegHD>(cfg, kFeatures);
      seen[t] = &learners[t]->encoder();
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
}

}  // namespace
}  // namespace reghd::core
