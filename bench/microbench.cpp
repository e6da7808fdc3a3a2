// Wall-clock microbenchmarks (google-benchmark) of the computational
// kernels, complementing the analytic cost model with measured host-CPU
// numbers: similarity search (cosine vs Hamming), the §3.2 prediction dots,
// encoding, and end-to-end train/predict steps.
//
// Three modes:
//  * default             — the google-benchmark suite (BM_* below).
//  * --json[=PATH]       — hand-rolled kernel timing that emits
//                          BENCH_kernels.json: ns/op and GB/s for every
//                          kernel in every runtime-available backend
//                          (scalar, avx2, avx512, neon) — a column whose
//                          table copies a narrower table's entry is tagged
//                          "inherits" — the seed's pre-SIMD
//                          reference loops for speedup accounting, fused
//                          single-query predict_one latency (p50/p99 vs the
//                          materializing path), end-to-end batch
//                          encode+predict throughput, and train-epoch
//                          throughput (sequential vs mini-batch).
//  * --train-json[=PATH] — emits BENCH_train.json: training samples/sec of
//                          the sequential online trainer vs deterministic
//                          mini-batches at B ∈ {1, 32, 256} × threads ∈
//                          {1, 4} on the standard 256×10-feature, k = 8,
//                          D = 4096 workload.
//  * --telemetry-json[=PATH] — runs the standard workload with the obs/
//                          telemetry layer enabled and dumps the merged
//                          snapshot as JSON (BENCH_telemetry.json). The
//                          --json report also carries a telemetry_overhead
//                          node: the e2e encode+predict loop timed with
//                          telemetry disabled vs enabled.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <span>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "core/encoded.hpp"
#include "core/multi_model.hpp"
#include "hdc/encoding.hpp"
#include "hdc/kernel_backend.hpp"
#include "hdc/ops.hpp"
#include "hdc/random_hv.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "util/fast_trig.hpp"
#include "util/random.hpp"
#include "util/statistics.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace reghd;

hdc::EncodedSample make_sample(std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  hdc::EncodedSample s;
  s.real = hdc::random_gaussian(dim, rng);
  s.binary = s.real.sign_packed();
  double n2 = 0.0;
  for (const double v : s.real.values()) {
    n2 += v * v;
  }
  s.real_norm2 = n2;
  s.real_norm = std::sqrt(n2);
  return s;
}

void BM_CosineSimilarity(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  const hdc::RealHV a = hdc::random_gaussian(dim, rng);
  const hdc::RealHV b = hdc::random_gaussian(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::cosine(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_CosineSimilarity)->Arg(1024)->Arg(4096)->Arg(10000);

void BM_HammingSimilarity(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  const hdc::BinaryHV a = hdc::random_binary(dim, rng);
  const hdc::BinaryHV b = hdc::random_binary(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::hamming_similarity(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_HammingSimilarity)->Arg(1024)->Arg(4096)->Arg(10000);

void BM_DotRealReal(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  const hdc::RealHV m = hdc::random_gaussian(dim, rng);
  const hdc::EncodedSample q = make_sample(dim, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::dot(m, q.real));
  }
}
BENCHMARK(BM_DotRealReal)->Arg(4096);

void BM_DotRealBinary(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  const hdc::RealHV m = hdc::random_gaussian(dim, rng);
  const hdc::EncodedSample q = make_sample(dim, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::dot(m, q.binary));
  }
}
BENCHMARK(BM_DotRealBinary)->Arg(4096);

void BM_DotBinaryBinary(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const hdc::EncodedSample a = make_sample(dim, 7);
  const hdc::EncodedSample b = make_sample(dim, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::bipolar_dot(a.binary, b.binary));
  }
}
BENCHMARK(BM_DotBinaryBinary)->Arg(4096);

void BM_EncodeRff(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdc::EncoderConfig cfg;
  cfg.kind = hdc::EncoderKind::kRffProjection;
  cfg.input_dim = 10;
  cfg.dim = dim;
  const auto encoder = hdc::make_encoder(cfg);
  util::Rng rng(9);
  std::vector<double> features(10);
  for (double& f : features) {
    f = rng.normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder->encode_real(features));
  }
}
BENCHMARK(BM_EncodeRff)->Arg(1024)->Arg(4096);

void BM_EncodeNonlinearEq1(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdc::EncoderConfig cfg;
  cfg.kind = hdc::EncoderKind::kNonlinearFeature;
  cfg.input_dim = 10;
  cfg.dim = dim;
  const auto encoder = hdc::make_encoder(cfg);
  util::Rng rng(10);
  std::vector<double> features(10);
  for (double& f : features) {
    f = rng.normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder->encode_real(features));
  }
}
BENCHMARK(BM_EncodeNonlinearEq1)->Arg(1024)->Arg(4096);

void BM_MultiModelTrainStep(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  core::RegHDConfig cfg;
  cfg.dim = 4096;
  cfg.models = k;
  core::MultiModelRegressor model(cfg);
  const hdc::EncodedSample s = make_sample(4096, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.train_step(s, 1.0));
  }
}
BENCHMARK(BM_MultiModelTrainStep)->Arg(1)->Arg(8)->Arg(32);

void BM_MultiModelPredict(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  core::RegHDConfig cfg;
  cfg.dim = 4096;
  cfg.models = k;
  core::MultiModelRegressor model(cfg);
  const hdc::EncodedSample s = make_sample(4096, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(s));
  }
}
BENCHMARK(BM_MultiModelPredict)->Arg(1)->Arg(8)->Arg(32);

void BM_MultiModelPredictQuantized(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  core::RegHDConfig cfg;
  cfg.dim = 4096;
  cfg.models = k;
  cfg.cluster_mode = core::ClusterMode::kQuantized;
  cfg.query_precision = core::QueryPrecision::kBinary;
  cfg.model_precision = core::ModelPrecision::kBinary;
  core::MultiModelRegressor model(cfg);
  const hdc::EncodedSample s = make_sample(4096, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(s));
  }
}
BENCHMARK(BM_MultiModelPredictQuantized)->Arg(8)->Arg(32);

// ---------------------------------------------------------------------------
// --json mode: per-kernel per-backend timing report
// ---------------------------------------------------------------------------

/// Repeats fn until ~60 ms have elapsed (after one warmup call) and returns
/// the mean ns per call.
template <typename F>
double time_ns(F&& fn) {
  fn();  // warmup: page in buffers, resolve the backend
  util::Stopwatch sw;
  std::size_t iters = 0;
  double elapsed_ms = 0.0;
  sw.restart();
  do {
    for (int i = 0; i < 8; ++i) {
      fn();
    }
    iters += 8;
    elapsed_ms = sw.elapsed_milliseconds();
  } while (elapsed_ms < 60.0);
  return elapsed_ms * 1e6 / static_cast<double>(iters);
}

double gb_per_s(double bytes_per_op, double ns_per_op) {
  return bytes_per_op / ns_per_op;  // B/ns == GB/s
}

// The seed's pre-SIMD loops, kept verbatim for speedup accounting.
double seed_dot_real_binary(const hdc::RealHV& a, const hdc::BinaryHV& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.dim(); ++i) {
    acc += b.bit(i) ? a[i] : -a[i];
  }
  return acc;
}

void seed_add_scaled_binary(hdc::RealHV& a, const hdc::BinaryHV& b, double c) {
  for (std::size_t i = 0; i < a.dim(); ++i) {
    a[i] += b.bit(i) ? c : -c;
  }
}

/// The seed RFF map: serial row dot, then cos(z+b)·sin(z) — two libm trig
/// calls per component where the current encoder uses one.
void seed_rff_encode(const std::vector<double>& projection, const std::vector<double>& phase,
                     const std::vector<double>& features, std::vector<double>& out) {
  const std::size_t d = phase.size();
  const std::size_t n = features.size();
  for (std::size_t j = 0; j < d; ++j) {
    const double* row = projection.data() + j * n;
    double z = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      z += row[k] * features[k];
    }
    out[j] = std::cos(z + phase[j]) * std::sin(z);
  }
}

/// Seed-shaped full-precision predict: naive cosine similarities over the k
/// cluster accumulators plus naive model dots (2·k·D multiplies per call).
double seed_predict(const core::MultiModelRegressor& reg, const hdc::EncodedSample& s) {
  const std::size_t k = reg.num_models();
  const std::size_t d = s.real.dim();
  std::vector<double> sims(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto c = reg.cluster_accumulator(i);
    double acc = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      acc += c[j] * s.real[j];
    }
    const double cn = std::sqrt(reg.cluster(i).norm2);
    sims[i] = (cn > 0.0 && s.real_norm > 0.0) ? acc / (cn * s.real_norm) : 0.0;
  }
  util::softmax_inplace(sims, reg.config().softmax_temperature);
  double y = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const auto m = reg.model_accumulator(i);
    double acc = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      acc += m[j] * s.real[j];
    }
    y += sims[i] * acc / static_cast<double>(d);
  }
  return y;
}

/// True when tables a and b hold the very same function for every listed
/// entry.
template <auto... Entries>
bool same_entries(const hdc::KernelBackend& a, const hdc::KernelBackend& b) {
  return ((a.*Entries == b.*Entries) && ...);
}

void report_backend(bench::JsonValue& node, const char* field, double bytes_per_op,
                    double ns) {
  node[field]["ns_per_op"] = bench::JsonValue::number(ns);
  node[field]["gb_per_s"] = bench::JsonValue::number(gb_per_s(bytes_per_op, ns));
}

int run_kernel_json(const std::string& path) {
  constexpr std::size_t kDim = 4096;
  constexpr std::size_t kWords = kDim / 64;
  constexpr std::size_t kFeatures = 10;
  constexpr std::size_t kRows = 256;
  constexpr std::size_t kModels = 8;

  util::Rng rng(0xBE7C);
  const hdc::RealHV ra = hdc::random_gaussian(kDim, rng);
  const hdc::RealHV rb = hdc::random_gaussian(kDim, rng);
  const hdc::BinaryHV ba = hdc::random_binary(kDim, rng);
  const hdc::BinaryHV bb = hdc::random_binary(kDim, rng);
  const hdc::BinaryHV mask = hdc::random_binary(kDim, rng);
  hdc::RealHV accum = hdc::random_gaussian(kDim, rng);

  // Every backend the dispatch layer would accept on this host, scalar
  // first — the per-kernel nodes below get one entry per table, so a run on
  // AVX-512 silicon (or an aarch64 build) reports those columns too.
  std::vector<const hdc::KernelBackend*> backends;
  const hdc::BackendList tables = hdc::available_backends();
  for (std::size_t t = 0; t < tables.count; ++t) {
    backends.push_back(tables.tables[t]);
  }

  // Buffers for the GEMM batch kernels: a 16-row feature block against the
  // F×D feature-major projection (the RFF arena-encode shape) and a query
  // row against a 2k×D cluster+model bank (the multi-model predict shape).
  constexpr std::size_t kGemmRows = 16;
  std::vector<double> gemm_a(kGemmRows * kFeatures);
  std::vector<double> gemm_b(kFeatures * kDim);
  std::vector<double> gemm_c(kGemmRows * kDim, 0.0);
  std::vector<double> gemm_phase(kDim);
  std::vector<double> gemm_sinp(kDim);
  std::vector<double> bank(2 * kModels * kDim);
  std::vector<double> bank_scores(2 * kModels);
  std::vector<std::uint64_t> binary_bank(2 * kModels * kWords);
  std::vector<std::int64_t> binary_scores(2 * kModels);
  std::vector<std::uint64_t> ternary_masks(2 * kModels * kWords);
  for (std::size_t r = 0; r < 2 * kModels; ++r) {
    const hdc::BinaryHV row = hdc::random_binary(kDim, rng);
    std::memcpy(binary_bank.data() + r * kWords, row.words().data(), kWords * 8);
    const hdc::BinaryHV mrow = hdc::random_binary(kDim, rng);
    std::memcpy(ternary_masks.data() + r * kWords, mrow.words().data(), kWords * 8);
  }
  std::vector<std::uint64_t> sign_bits(kWords);
  for (double& x : gemm_a) {
    x = rng.normal();
  }
  for (double& x : gemm_b) {
    x = rng.normal();
  }
  for (std::size_t j = 0; j < kDim; ++j) {
    gemm_phase[j] = rng.phase();
    gemm_sinp[j] = util::fast_sin(gemm_phase[j]);
  }
  for (double& x : bank) {
    x = rng.normal();
  }

  // dot_rows_multi shapes: a (2k)×D bank and a plane of queries.
  struct MultiShape {
    const char* name;
    std::size_t dim, rows, queries;
    std::vector<double> bank, plane;
  };
  MultiShape multi_shapes[] = {
      {"serving_d2048_rows8_q128", 2048, 8, 128, {}, {}},
      {"validation_d4096_rows16_q4096", 4096, 16, 4096, {}, {}},
  };
  for (MultiShape& shape : multi_shapes) {
    shape.bank.resize(shape.rows * shape.dim);
    shape.plane.resize(shape.queries * shape.dim);
    for (double& x : shape.bank) {
      x = rng.normal();
    }
    for (double& x : shape.plane) {
      x = rng.normal();
    }
  }

  bench::JsonValue root = bench::JsonValue::object();
  root["dim"] = bench::JsonValue::integer(static_cast<std::int64_t>(kDim));
  root["active_backend"] = bench::JsonValue::string(hdc::active_backend().name);
  root["cpu_supports_avx2"] = bench::JsonValue::boolean(hdc::cpu_supports_avx2());
  root["cpu_supports_avx512"] = bench::JsonValue::boolean(hdc::cpu_supports_avx512());
  root["cpu_supports_avx512_vpopcntdq"] =
      bench::JsonValue::boolean(hdc::cpu_supports_avx512_vpopcntdq());
  root["host_hardware_concurrency"] = bench::JsonValue::integer(
      static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  const char* env_threads = std::getenv("REGHD_THREADS");
  root["env_reghd_threads"] = bench::JsonValue::string(env_threads ? env_threads : "");

  bench::JsonValue& kernels = root["kernels"];

  const double* pra = ra.values().data();
  const double* prb = rb.values().data();
  const std::uint64_t* pba = ba.words().data();
  const std::uint64_t* pbb = bb.words().data();
  const std::uint64_t* pmask = mask.words().data();

  // Seed references first (they anchor the speedup figures).
  const double seed_drb = time_ns([&] {
    benchmark::DoNotOptimize(seed_dot_real_binary(ra, ba));
  });
  const double seed_asb = time_ns([&] { seed_add_scaled_binary(accum, ba, 0.01); });

  for (const hdc::KernelBackend* kb : backends) {
    const std::string b = kb->name;
    double ns;

    ns = time_ns([&] { benchmark::DoNotOptimize(kb->dot_real_real(pra, prb, kDim)); });
    report_backend(kernels["dot_real_real"], b.c_str(), 2.0 * kDim * 8, ns);

    ns = time_ns([&] { benchmark::DoNotOptimize(kb->dot_real_binary(pra, pba, kDim)); });
    report_backend(kernels["dot_real_binary"], b.c_str(), kDim * 8.0 + kWords * 8.0, ns);

    ns = time_ns(
        [&] { benchmark::DoNotOptimize(kb->masked_dot(pra, pba, pmask, kDim)); });
    report_backend(kernels["masked_dot"], b.c_str(), kDim * 8.0 + 2.0 * kWords * 8, ns);

    ns = time_ns([&] { benchmark::DoNotOptimize(kb->hamming(pba, pbb, kWords)); });
    report_backend(kernels["hamming"], b.c_str(), 2.0 * kWords * 8, ns);

    double* pacc = accum.values().data();
    ns = time_ns([&] { kb->add_scaled_real(pacc, prb, 0.01, kDim); });
    report_backend(kernels["add_scaled_real"], b.c_str(), 3.0 * kDim * 8, ns);

    ns = time_ns([&] { kb->add_scaled_binary(pacc, pba, 0.01, kDim); });
    report_backend(kernels["add_scaled_binary"], b.c_str(),
                   2.0 * kDim * 8 + kWords * 8.0, ns);

    ns = time_ns([&] { kb->scale_real(pacc, 0.999999, kDim); });
    report_backend(kernels["scale_real"], b.c_str(), 2.0 * kDim * 8, ns);

    // Resident encode block: 16 rows projected through the F×D weights and
    // trig-mapped in one cache-blocked pass (bytes = every operand once, C
    // written only).
    ns = time_ns([&] {
      kb->rff_project_map(gemm_a.data(), kFeatures, gemm_b.data(), kDim, gemm_phase.data(),
                          gemm_sinp.data(), gemm_c.data(), kDim, kGemmRows, kFeatures, kDim);
    });
    report_backend(kernels["project_map_encode"], b.c_str(),
                   (kGemmRows * kFeatures + kFeatures * kDim + 2.0 * kDim +
                    kGemmRows * kDim) * 8,
                   ns);

    // Batch bank scoring, Q·Bankᵀ: a block of queries against the 2k-row
    // bank in one dot_rows_multi call, against the same queries scored one
    // nq = 1 call (the single-query scan) at a time. Two shapes: the serving
    // admission batch (D = 2048, k = 4, 128 queries) and the validation pass
    // of a fit (D = 4096, k = 8, 4096 queries streamed from a 128 MiB plane).
    for (const MultiShape& shape : multi_shapes) {
      std::vector<double> scores(shape.queries * shape.rows);
      const auto one_call = [&] {
        kb->dot_rows_multi(shape.bank.data(), shape.dim, shape.rows, shape.plane.data(),
                           shape.dim, shape.queries, shape.dim, scores.data());
      };
      const auto per_query = [&] {
        for (std::size_t q = 0; q < shape.queries; ++q) {
          kb->dot_rows_multi(shape.bank.data(), shape.dim, shape.rows,
                             shape.plane.data() + q * shape.dim, shape.dim, 1, shape.dim,
                             scores.data() + q * shape.rows);
        }
      };
      const double multi_ns = time_ns(one_call) / static_cast<double>(shape.queries);
      const double nq1_ns = time_ns(per_query) / static_cast<double>(shape.queries);
      bench::JsonValue& node = kernels["dot_rows_multi"][shape.name][b];
      node["ns_per_query"] = bench::JsonValue::number(multi_ns);
      node["nq1_loop_ns_per_query"] = bench::JsonValue::number(nq1_ns);
      node["speedup_vs_nq1_loop"] = bench::JsonValue::number(nq1_ns / multi_ns);
    }

    // Carried-state D-block bank scan: one query's 2k-row f64 sweep, fed
    // through dot_rows_block in 1024-column blocks — the fused predict_one
    // dataflow, where each block of the query is scored against every row
    // while still L1-resident.
    {
      constexpr std::size_t kBlock = 1024;
      std::vector<const double*> row_ptrs(2 * kModels);
      std::vector<double> block_state(2 * kModels * hdc::kDotRowsBlockState);
      ns = time_ns([&] {
        std::fill(block_state.begin(), block_state.end(), 0.0);
        for (std::size_t j0 = 0; j0 < kDim; j0 += kBlock) {
          const std::size_t len = std::min(kBlock, kDim - j0);
          for (std::size_t r = 0; r < 2 * kModels; ++r) {
            row_ptrs[r] = bank.data() + r * kDim + j0;
          }
          kb->dot_rows_block(pra + j0, row_ptrs.data(), 2 * kModels, len,
                             j0 + len == kDim, block_state.data(),
                             bank_scores.data());
        }
      });
      report_backend(kernels["dot_rows_block"], b.c_str(),
                     (2.0 * kModels * kDim + kDim) * 8, ns);
    }

    // One training sweep over the bank: sample t's Eq. 7/8 updates (the k
    // model rows and one cluster row) then sample t + 1's scan — composed
    // (add_scaled_real per updated row, then the one-query dot_rows_multi:
    // two passes over the bank) vs the table's update_dot_rows (one). Tiny alternating-sign
    // coefficients keep the bank bounded across iterations.
    {
      std::vector<double> coeff(2 * kModels, 0.0);
      coeff[1] = 1e-6;
      for (std::size_t m = 0; m < kModels; ++m) {
        coeff[kModels + m] = m % 2 == 0 ? 1e-6 : -1e-6;
      }
      const double composed_ns = time_ns([&] {
        for (std::size_t r = 0; r < 2 * kModels; ++r) {
          if (coeff[r] != 0.0) {
            kb->add_scaled_real(bank.data() + r * kDim, prb, coeff[r], kDim);
          }
        }
        kb->dot_rows_multi(bank.data(), kDim, 2 * kModels, pra, kDim, 1, kDim,
                           bank_scores.data());
      });
      ns = time_ns([&] {
        kb->update_dot_rows(bank.data(), kDim, 2 * kModels, coeff.data(), prb, pra, kDim,
                            bank_scores.data());
      });
      // Logical bytes: every row read, the updated rows written, both queries.
      const double bytes = (2.0 * kModels + kModels + 1.0 + 2.0) * kDim * 8;
      report_backend(kernels["update_dot_rows_composed"], b.c_str(), bytes, composed_ns);
      report_backend(kernels["update_dot_rows"], b.c_str(), bytes, ns);
    }

    // Packed ternary bank scan: masked XNOR + popcount per row — the
    // 2-bit-plane replacement for the f64 dot_rows_multi sweep of one query.
    ns = time_ns([&] {
      kb->dot_rows_ternary(pba, binary_bank.data(), ternary_masks.data(), kWords,
                           2 * kModels, kDim, binary_scores.data());
    });
    report_backend(kernels["dot_rows_ternary"], b.c_str(),
                   (4.0 * kModels + 1.0) * kWords * 8, ns);

    // Counter-based RFF row rematerialization: one 16-row tile (the encoder's
    // remat scratch unit) regenerated from the master seed. Pure compute —
    // the bytes figure is the tile it fills.
    constexpr std::size_t kRematTile = 16;
    std::vector<double> remat_tile(kFeatures * kRematTile);
    ns = time_ns([&] {
      kb->rff_rematerialize(0x5EED, 0.316, 128, kRematTile, kFeatures,
                            remat_tile.data(), kRematTile);
    });
    report_backend(kernels["rff_rematerialize"], b.c_str(),
                   kRematTile * kFeatures * 8.0, ns);

    // The rematerialized batch-encode shape serving runs (F = 32, D = 2048,
    // B = 64): project_map_remat_tile is rff_project_map alone, 64 rows
    // through D/16 weight tiles 16 columns wide (the GEMM with the trig map
    // fused in, C write-only); remat_encode_batch is encode_batch_into's
    // whole single-worker remat sequence on this table (regenerate each tile
    // once, then project-and-map it into all 64 rows).
    {
      constexpr std::size_t kServeF = 32;
      constexpr std::size_t kServeD = 2048;
      constexpr std::size_t kServeB = 64;
      std::vector<double> tile_a(kServeB * kServeF);
      std::vector<double> tile_b(kServeF * kRematTile);
      std::vector<double> tile_c(kServeB * kServeD, 0.0);
      for (double& x : tile_a) {
        x = rng.normal();
      }
      kb->rff_rematerialize(0x5EED, 0.177, 0, kRematTile, kServeF, tile_b.data(),
                            kRematTile);
      std::vector<double> serve_phase(kServeD);
      std::vector<double> serve_sinp(kServeD);
      for (std::size_t j = 0; j < kServeD; ++j) {
        serve_phase[j] = rng.phase();
        serve_sinp[j] = util::fast_sin(serve_phase[j]);
      }
      ns = time_ns([&] {
        for (std::size_t j0 = 0; j0 < kServeD; j0 += kRematTile) {
          kb->rff_project_map(tile_a.data(), kServeF, tile_b.data(), kRematTile,
                              serve_phase.data() + j0, serve_sinp.data() + j0,
                              tile_c.data() + j0, kServeD, kServeB, kServeF, kRematTile);
        }
      });
      report_backend(kernels["project_map_remat_tile"], b.c_str(),
                     (kServeB * kServeF + kServeB * kServeD) * 8, ns);

      ns = time_ns([&] {
        for (std::size_t j0 = 0; j0 < kServeD; j0 += kRematTile) {
          kb->rff_rematerialize(0x5EED, 0.177, j0, kRematTile, kServeF, tile_b.data(),
                                kRematTile);
          kb->rff_project_map(tile_a.data(), kServeF, tile_b.data(), kRematTile,
                              serve_phase.data() + j0, serve_sinp.data() + j0,
                              tile_c.data() + j0, kServeD, kServeB, kServeF, kRematTile);
        }
      });
      report_backend(kernels["remat_encode_batch"], b.c_str(),
                     (kServeB * kServeF + kServeB * kServeD) * 8, ns);
    }

    // Packed sign binarization of one encoded row.
    ns = time_ns([&] { kb->sign_pack(pra, sign_bits.data(), kDim); });
    report_backend(kernels["sign_pack"], b.c_str(), kDim * 8.0 + kWords * 8.0, ns);
  }

  // A wider table that copies a narrower one's entry (the same function
  // pointer) times that narrower code a second time: its ratio to the
  // narrower column is run-to-run spread, not an override winning or losing.
  // Each such column is tagged "inherits": <narrower table>.
  using KB = hdc::KernelBackend;
  const struct {
    const char* node;
    bool (*same)(const KB&, const KB&);
  } node_entries[] = {
      {"dot_real_real", same_entries<&KB::dot_real_real>},
      {"dot_real_binary", same_entries<&KB::dot_real_binary>},
      {"masked_dot", same_entries<&KB::masked_dot>},
      {"hamming", same_entries<&KB::hamming>},
      {"add_scaled_real", same_entries<&KB::add_scaled_real>},
      {"add_scaled_binary", same_entries<&KB::add_scaled_binary>},
      {"scale_real", same_entries<&KB::scale_real>},
      {"project_map_encode", same_entries<&KB::rff_project_map>},
      {"dot_rows_block", same_entries<&KB::dot_rows_block>},
      {"update_dot_rows_composed",
       same_entries<&KB::add_scaled_real, &KB::dot_rows_multi>},
      {"update_dot_rows", same_entries<&KB::update_dot_rows>},
      {"dot_rows_ternary", same_entries<&KB::dot_rows_ternary>},
      {"rff_rematerialize", same_entries<&KB::rff_rematerialize>},
      {"project_map_remat_tile", same_entries<&KB::rff_project_map>},
      {"remat_encode_batch", same_entries<&KB::rff_rematerialize, &KB::rff_project_map>},
      {"sign_pack", same_entries<&KB::sign_pack>},
  };
  for (const auto& e : node_entries) {
    for (std::size_t wide = 1; wide < backends.size(); ++wide) {
      for (std::size_t narrow = 0; narrow < wide; ++narrow) {
        if (e.same(*backends[narrow], *backends[wide])) {
          kernels[e.node][backends[wide]->name]["inherits"] =
              bench::JsonValue::string(backends[narrow]->name);
          break;
        }
      }
    }
  }

  kernels["dot_real_binary"]["seed"]["ns_per_op"] = bench::JsonValue::number(seed_drb);
  kernels["add_scaled_binary"]["seed"]["ns_per_op"] = bench::JsonValue::number(seed_asb);

  // RFF encode: seed formula (2 trig calls + serial dot) vs current encoder.
  hdc::EncoderConfig ecfg;
  ecfg.kind = hdc::EncoderKind::kRffProjection;
  ecfg.input_dim = kFeatures;
  ecfg.dim = kDim;
  const auto encoder = hdc::make_encoder(ecfg);
  std::vector<double> projection(kDim * kFeatures);
  std::vector<double> phase(kDim);
  std::vector<double> features(kFeatures);
  for (double& w : projection) {
    w = rng.normal(0.0, 1.0 / std::sqrt(static_cast<double>(kFeatures)));
  }
  for (double& p : phase) {
    p = rng.phase();
  }
  for (double& f : features) {
    f = rng.normal();
  }
  std::vector<double> scratch(kDim);
  const double seed_encode_ns =
      time_ns([&] { seed_rff_encode(projection, phase, features, scratch); });
  const double encode_ns =
      time_ns([&] { benchmark::DoNotOptimize(encoder->encode_real(features)); });
  kernels["rff_encode"]["seed"]["ns_per_op"] = bench::JsonValue::number(seed_encode_ns);
  report_backend(kernels["rff_encode"], hdc::active_backend().name,
                 kDim * kFeatures * 8.0, encode_ns);

  // Projection storage: resident F×D matrix vs counter-based rematerialized
  // tiles (bit-identical encodings; the trade is resident bytes for
  // regeneration compute).
  hdc::EncoderConfig remat_cfg = ecfg;
  remat_cfg.projection_storage = hdc::ProjectionStorage::kRematerialized;
  const auto remat_encoder = hdc::make_encoder(remat_cfg);
  const double remat_encode_ns =
      time_ns([&] { benchmark::DoNotOptimize(remat_encoder->encode_real(features)); });
  // The real encode_batch_into on the active table, one worker, through
  // the regenerated-tile path: F = 32 at D = 8192 (2 MiB, over
  // kRematCacheBytes; the D = 2048 serving shape would be stored and time
  // the resident columns). The per-table replay of the serving shape's
  // tiles is kernels.remat_encode_batch. B = 64, and B = 128 — the
  // admission block a saturated serving worker encodes.
  const auto remat_batch_ns_per_row = [&](std::size_t rows) {
    constexpr std::size_t kServeF = 32;
    hdc::EncoderConfig serve_cfg = remat_cfg;
    serve_cfg.input_dim = kServeF;
    serve_cfg.dim = 8192;
    const auto serve_encoder = hdc::make_encoder(serve_cfg);
    std::vector<double> batch(rows * kServeF);
    for (double& x : batch) {
      x = rng.normal();
    }
    core::EncodedDataset arena;
    return time_ns([&] { arena.assign_rows(*serve_encoder, batch, rows, 1); }) /
           static_cast<double>(rows);
  };
  const double remat_batch64_ns = remat_batch_ns_per_row(64);
  const double remat_batch128_ns = remat_batch_ns_per_row(128);
  {
    constexpr std::size_t kRematTile = 16;
    bench::JsonValue& ps = root["projection_storage"];
    ps["resident"]["encode_ns_per_row"] = bench::JsonValue::number(encode_ns);
    ps["resident"]["projection_resident_bytes"] =
        bench::JsonValue::integer(static_cast<std::int64_t>(kDim * kFeatures * 8));
    ps["rematerialized"]["encode_ns_per_row"] = bench::JsonValue::number(remat_encode_ns);
    ps["rematerialized"]["batch64_f32_d8192_encode_ns_per_row"] =
        bench::JsonValue::number(remat_batch64_ns);
    ps["rematerialized"]["batch128_f32_d8192_encode_ns_per_row"] =
        bench::JsonValue::number(remat_batch128_ns);
    // The encoder stores the matrix when it fits the budget; otherwise each
    // encoding thread holds an O(tile) scratch instead.
    const std::size_t projection_bytes = kDim * kFeatures * 8;
    const bool stored = projection_bytes <= hdc::RffProjectionEncoder::kRematCacheBytes;
    ps["rematerialized"]["projection_resident_bytes"] =
        bench::JsonValue::integer(static_cast<std::int64_t>(stored ? projection_bytes : 0));
    ps["rematerialized"]["scratch_bytes"] = bench::JsonValue::integer(
        static_cast<std::int64_t>(stored ? 0 : kFeatures * kRematTile * 8));
  }

  // Fused single-query latency: predict_one (encode→search→predict through
  // one L1-resident D-block loop, no EncodedSample materialization) vs the
  // materializing predict(encode(q)), both driving the rematerialized
  // projection at D = 4096, F = 10, k = 8. Single-query serving is a
  // tail-latency story, so the report carries per-call p50/p99 rather than
  // a mean over a hot loop.
  {
    core::RegHDConfig fcfg;
    fcfg.dim = kDim;
    fcfg.models = kModels;
    core::MultiModelRegressor freg(fcfg);
    util::Rng frng(0xF05E);
    std::vector<double> query(kFeatures);
    for (double& x : query) {
      x = frng.normal();
    }
    for (std::size_t i = 0; i < 64; ++i) {
      std::vector<double> f(kFeatures);
      for (double& x : f) {
        x = frng.normal();
      }
      freg.train_step(remat_encoder->encode(f), std::sin(0.1 * static_cast<double>(i)));
    }
    freg.requantize();

    constexpr std::size_t kLatencySamples = 512;
    const auto sample_ns = [&](auto&& fn) {
      std::vector<double> samples;
      samples.reserve(kLatencySamples);
      fn();  // warmup: thread-local scratch, page-in, backend resolution
      util::Stopwatch sw;
      for (std::size_t i = 0; i < kLatencySamples; ++i) {
        sw.restart();
        fn();
        samples.push_back(sw.elapsed_milliseconds() * 1e6);
      }
      std::sort(samples.begin(), samples.end());
      return samples;
    };
    const std::vector<double> fused_ns = sample_ns(
        [&] { benchmark::DoNotOptimize(freg.predict_one(*remat_encoder, query)); });
    const std::vector<double> mat_ns = sample_ns(
        [&] { benchmark::DoNotOptimize(freg.predict(remat_encoder->encode(query))); });
    const auto p50 = [](const std::vector<double>& s) { return s[s.size() / 2]; };
    const auto p99 = [](const std::vector<double>& s) { return s[(s.size() * 99) / 100]; };

    bench::JsonValue& po = root["predict_one_fused"];
    po["dim"] = bench::JsonValue::integer(static_cast<std::int64_t>(kDim));
    po["features"] = bench::JsonValue::integer(static_cast<std::int64_t>(kFeatures));
    po["models"] = bench::JsonValue::integer(static_cast<std::int64_t>(kModels));
    po["projection_storage"] = bench::JsonValue::string("rematerialized");
    po["samples"] = bench::JsonValue::integer(static_cast<std::int64_t>(kLatencySamples));
    po["fused"]["p50_ns"] = bench::JsonValue::number(p50(fused_ns));
    po["fused"]["p99_ns"] = bench::JsonValue::number(p99(fused_ns));
    po["materializing"]["p50_ns"] = bench::JsonValue::number(p50(mat_ns));
    po["materializing"]["p99_ns"] = bench::JsonValue::number(p99(mat_ns));
    po["speedup_p50"] = bench::JsonValue::number(p50(mat_ns) / p50(fused_ns));
    po["speedup_p99"] = bench::JsonValue::number(p99(mat_ns) / p99(fused_ns));
  }

  // End-to-end: encode kRows rows and predict each with a k-model regressor,
  // batched path vs the seed's per-row loops.
  core::RegHDConfig rcfg;
  rcfg.dim = kDim;
  rcfg.models = kModels;
  core::MultiModelRegressor reg(rcfg);
  data::Dataset rows("bench", kFeatures, [&] {
    std::vector<double> flat(kRows * kFeatures);
    for (double& f : flat) {
      f = rng.normal();
    }
    return flat;
  }(), std::vector<double>(kRows, 0.0));

  // Train briefly so the models are non-trivial (timing is state-independent,
  // but an all-zero model lets the compiler skip surprising amounts of work).
  {
    const core::EncodedDataset warm = core::EncodedDataset::from(*encoder, rows);
    for (std::size_t i = 0; i < warm.size(); ++i) {
      reg.train_step(warm.sample(i), std::sin(static_cast<double>(i)));
    }
    reg.requantize();
  }

  const double e2e_batched_ns = time_ns([&] {
    const core::EncodedDataset enc = core::EncodedDataset::from(*encoder, rows);
    benchmark::DoNotOptimize(reg.predict_batch(enc));
  });
  const double e2e_seed_ns = time_ns([&] {
    double sink = 0.0;
    for (std::size_t i = 0; i < kRows; ++i) {
      const auto row = rows.row(i);
      seed_rff_encode(projection, phase,
                      std::vector<double>(row.begin(), row.end()), scratch);
      hdc::EncodedSample s;
      s.real = hdc::RealHV(scratch);
      s.binary = hdc::BinaryHV(kDim);  // the seed's per-component sign
      for (std::size_t j = 0; j < kDim; ++j) {
        s.binary.set_bit(j, !(scratch[j] < 0.0));
      }
      double n2 = 0.0;
      for (const double v : scratch) {
        n2 += v * v;
      }
      s.real_norm2 = n2;
      s.real_norm = std::sqrt(n2);
      sink += seed_predict(reg, s);
    }
    benchmark::DoNotOptimize(sink);
  });

  bench::JsonValue& e2e = root["end_to_end_encode_predict"];
  e2e["rows"] = bench::JsonValue::integer(static_cast<std::int64_t>(kRows));
  e2e["features"] = bench::JsonValue::integer(static_cast<std::int64_t>(kFeatures));
  e2e["models"] = bench::JsonValue::integer(static_cast<std::int64_t>(kModels));
  e2e["seed"]["ns_per_row"] = bench::JsonValue::number(e2e_seed_ns / kRows);
  e2e["batched"]["ns_per_row"] = bench::JsonValue::number(e2e_batched_ns / kRows);
  e2e["batched"]["rows_per_s"] = bench::JsonValue::number(1e9 * kRows / e2e_batched_ns);

  // Telemetry overhead on the e2e encode+predict loop, disabled vs enabled
  // back to back. Disabled (the default state) is the cost of the compiled-in
  // instrumentation when off: one well-predicted branch per record point.
  // Enabled adds the clock reads and relaxed shard increments. Min-of-3 runs
  // per state trims allocator and frequency-scaling noise, which on shared
  // machines otherwise dwarfs the effect being measured.
  {
    const auto e2e_loop = [&] {
      const core::EncodedDataset enc = core::EncodedDataset::from(*encoder, rows);
      benchmark::DoNotOptimize(reg.predict_batch(enc));
    };
    const auto best_of3 = [&](const auto& fn) {
      double best = time_ns(fn);
      for (int r = 0; r < 2; ++r) {
        best = std::min(best, time_ns(fn));
      }
      return best;
    };
    const double tel_off_ns = best_of3(e2e_loop);
    obs::set_enabled(true);
    const double tel_on_ns = best_of3(e2e_loop);
    obs::set_enabled(false);
    obs::reset();
    bench::JsonValue& tel = root["telemetry_overhead"];
    tel["disabled"]["ns_per_row"] = bench::JsonValue::number(tel_off_ns / kRows);
    tel["enabled"]["ns_per_row"] = bench::JsonValue::number(tel_on_ns / kRows);
    tel["enabled_overhead_percent"] =
        bench::JsonValue::number(100.0 * (tel_on_ns - tel_off_ns) / tel_off_ns);
  }

  // Train-epoch throughput: one pass over the kRows encoded samples, the
  // per-sample train_epoch that fit() and the sharded refine run (on a
  // training team of the default thread count at this shape, DESIGN §11.7)
  // vs deterministic mini-batches (B = 32, default thread count).
  // --train-json expands this across B × threads.
  const core::EncodedDataset enc_train = core::EncodedDataset::from(*encoder, rows);
  std::vector<std::size_t> train_order(enc_train.size());
  std::iota(train_order.begin(), train_order.end(), 0);
  std::vector<double> train_preds(enc_train.size());
  const double train_seq_ns = time_ns(
      [&] { benchmark::DoNotOptimize(reg.train_epoch(enc_train, train_order, 0)); });
  const double train_b32_ns = time_ns([&] {
    for (std::size_t b0 = 0; b0 < train_order.size(); b0 += 32) {
      const std::size_t bn = std::min(train_order.size(), b0 + 32);
      reg.train_batch(enc_train,
                      std::span<const std::size_t>(train_order.data() + b0, bn - b0),
                      std::span<double>(train_preds.data(), bn - b0));
    }
  });
  bench::JsonValue& tr = root["train_epoch"];
  tr["rows"] = bench::JsonValue::integer(static_cast<std::int64_t>(enc_train.size()));
  tr["models"] = bench::JsonValue::integer(static_cast<std::int64_t>(kModels));
  tr["sequential"]["ns_per_epoch"] = bench::JsonValue::number(train_seq_ns);
  tr["sequential"]["samples_per_s"] =
      bench::JsonValue::number(1e9 * static_cast<double>(enc_train.size()) / train_seq_ns);
  tr["batch32"]["ns_per_epoch"] = bench::JsonValue::number(train_b32_ns);
  tr["batch32"]["samples_per_s"] =
      bench::JsonValue::number(1e9 * static_cast<double>(enc_train.size()) / train_b32_ns);

  // Resident-bytes accounting for the packed scan bank: a quantized k-model
  // regressor's PackedTernaryBank vs the f64 rows it replaces.
  {
    core::RegHDConfig qcfg = rcfg;
    qcfg.query_precision = core::QueryPrecision::kBinary;
    qcfg.model_precision = core::ModelPrecision::kTernary;
    const core::MultiModelRegressor qreg(qcfg);
    bench::JsonValue& mem = root["resident_bytes"];
    mem["model_bank_real_per_model"] =
        bench::JsonValue::integer(static_cast<std::int64_t>(kDim * 8));
    mem["model_bank_packed_per_model"] =
        bench::JsonValue::integer(static_cast<std::int64_t>(2 * kWords * 8 + 8));
    mem["packed_bank_total"] = bench::JsonValue::integer(
        static_cast<std::int64_t>(qreg.packed_bank().resident_bytes()));
    mem["packed_bank_rows"] = bench::JsonValue::integer(
        static_cast<std::int64_t>(qreg.packed_bank().rows));
  }

  bench::JsonValue& speedups = root["speedups_vs_seed"];
  const std::string active = hdc::active_backend().name;
  const double active_drb_ns =
      time_ns([&] { benchmark::DoNotOptimize(hdc::dot(ra, ba)); });
  speedups["dot_real_binary"] = bench::JsonValue::number(seed_drb / active_drb_ns);
  speedups["rff_encode"] = bench::JsonValue::number(seed_encode_ns / encode_ns);
  speedups["encode_predict_end_to_end"] =
      bench::JsonValue::number(e2e_seed_ns / e2e_batched_ns);
  speedups["train_epoch_batch32"] = bench::JsonValue::number(train_seq_ns / train_b32_ns);
  {
    // Effective bank-scan speedup: same 2k logical rows scored per call,
    // packed ternary planes vs the f64 bank sweep.
    const hdc::KernelBackend& akb = hdc::active_backend();
    const double bank_real_ns = time_ns([&] {
      akb.dot_rows_multi(bank.data(), kDim, 2 * kModels, pra, kDim, 1, kDim,
                         bank_scores.data());
    });
    const double bank_tern_ns = time_ns([&] {
      akb.dot_rows_ternary(pba, binary_bank.data(), ternary_masks.data(), kWords,
                           2 * kModels, kDim, binary_scores.data());
    });
    speedups["ternary_bank_scan_vs_real"] =
        bench::JsonValue::number(bank_real_ns / bank_tern_ns);
  }
  speedups["active_backend"] = bench::JsonValue::string(active);

  return bench::write_json_file(path, root) ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --train-json mode: fit throughput, sequential vs mini-batches (B × threads)
// ---------------------------------------------------------------------------

int run_train_json(const std::string& path) {
  constexpr std::size_t kDim = 4096;
  constexpr std::size_t kFeatures = 10;
  constexpr std::size_t kRows = 256;
  constexpr std::size_t kModels = 8;

  util::Rng rng(0x7E41B);
  hdc::EncoderConfig ecfg;
  ecfg.kind = hdc::EncoderKind::kRffProjection;
  ecfg.input_dim = kFeatures;
  ecfg.dim = kDim;
  const auto encoder = hdc::make_encoder(ecfg);

  std::vector<double> flat(kRows * kFeatures);
  std::vector<double> targets(kRows);
  for (double& f : flat) {
    f = rng.normal();
  }
  for (std::size_t i = 0; i < kRows; ++i) {
    targets[i] = std::sin(0.1 * static_cast<double>(i));
  }
  const data::Dataset rows("train-bench", kFeatures, std::move(flat), std::move(targets));
  const core::EncodedDataset enc = core::EncodedDataset::from(*encoder, rows);

  core::RegHDConfig rcfg;
  rcfg.dim = kDim;
  rcfg.models = kModels;
  core::MultiModelRegressor reg(rcfg);
  // Warm the model so no branch trains on an all-zero state.
  for (std::size_t i = 0; i < enc.size(); ++i) {
    reg.train_step(enc.sample(i), enc.target(i));
  }
  reg.requantize();

  std::vector<std::size_t> order(enc.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> preds(enc.size());

  bench::JsonValue root = bench::JsonValue::object();
  root["active_backend"] = bench::JsonValue::string(hdc::active_backend().name);
  // Thread rows above the host's core count cannot speed anything up (the
  // pool oversubscribes one core); record the ceiling so the T-rows of this
  // file are read against the hardware that produced them.
  root["host_hardware_concurrency"] = bench::JsonValue::integer(
      static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  root["rows"] = bench::JsonValue::integer(static_cast<std::int64_t>(kRows));
  root["features"] = bench::JsonValue::integer(static_cast<std::int64_t>(kFeatures));
  root["models"] = bench::JsonValue::integer(static_cast<std::int64_t>(kModels));
  root["dim"] = bench::JsonValue::integer(static_cast<std::int64_t>(kDim));

  const double seq_ns =
      time_ns([&] { benchmark::DoNotOptimize(reg.train_epoch(enc, order, 0)); });
  root["sequential"]["ns_per_epoch"] = bench::JsonValue::number(seq_ns);
  root["sequential"]["samples_per_s"] =
      bench::JsonValue::number(1e9 * static_cast<double>(kRows) / seq_ns);

  bench::JsonValue& batched = root["batched"];
  for (const std::size_t bsize : {std::size_t{1}, std::size_t{32}, std::size_t{256}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const double ns = time_ns([&] {
        for (std::size_t b0 = 0; b0 < order.size(); b0 += bsize) {
          const std::size_t bn = std::min(order.size(), b0 + bsize);
          reg.train_batch(enc, std::span<const std::size_t>(order.data() + b0, bn - b0),
                          std::span<double>(preds.data(), bn - b0), threads);
        }
      });
      bench::JsonValue& node =
          batched["B" + std::to_string(bsize) + "_T" + std::to_string(threads)];
      node["batch"] = bench::JsonValue::integer(static_cast<std::int64_t>(bsize));
      node["threads"] = bench::JsonValue::integer(static_cast<std::int64_t>(threads));
      node["ns_per_epoch"] = bench::JsonValue::number(ns);
      node["samples_per_s"] =
          bench::JsonValue::number(1e9 * static_cast<double>(kRows) / ns);
      node["speedup_vs_sequential"] = bench::JsonValue::number(seq_ns / ns);
    }
  }

  // Sharded data-parallel fits (core/sharded_training): each sample is one
  // complete shard-train → merge run over the same encoded rows, S × T grid.
  // Validation rows are drawn after the training block from the same rng
  // stream, so the sections above see exactly the draws they always did.
  constexpr std::size_t kValRows = 64;
  std::vector<double> val_flat(kValRows * kFeatures);
  std::vector<double> val_targets(kValRows);
  for (double& f : val_flat) {
    f = rng.normal();
  }
  for (std::size_t i = 0; i < kValRows; ++i) {
    val_targets[i] = std::sin(0.1 * static_cast<double>(kRows + i));
  }
  const data::Dataset val_rows("train-bench-val", kFeatures, std::move(val_flat),
                               std::move(val_targets));
  const core::EncodedDataset val_enc = core::EncodedDataset::from(*encoder, val_rows);

  core::RegHDConfig shard_rcfg = rcfg;
  shard_rcfg.max_epochs = 4;  // bounded, identical work per timed call
  shard_rcfg.patience = 4;

  bench::JsonValue& sharded = root["sharded"];
  double s1t1_ns = 0.0;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      core::ShardedTrainConfig scfg;
      scfg.shards = shards;
      scfg.threads = threads;
      core::ShardedTrainReport last;
      const double ns = time_ns([&] {
        core::ShardedTrainer trainer(shard_rcfg);
        last = trainer.fit(enc, val_enc, scfg);
      });
      if (shards == 1 && threads == 1) {
        s1t1_ns = ns;
      }
      bench::JsonValue& node =
          sharded["S" + std::to_string(shards) + "_T" + std::to_string(threads)];
      node["shards"] = bench::JsonValue::integer(static_cast<std::int64_t>(shards));
      node["threads"] = bench::JsonValue::integer(static_cast<std::int64_t>(threads));
      node["ns_per_fit"] = bench::JsonValue::number(ns);
      node["samples_per_s"] =
          bench::JsonValue::number(1e9 * static_cast<double>(kRows) / ns);
      node["speedup_vs_S1_T1"] = bench::JsonValue::number(s1t1_ns / ns);
      node["merged_val_mse"] = bench::JsonValue::number(last.merged_val_mse);
      node["final_val_mse"] = bench::JsonValue::number(last.final_val_mse);
    }
  }

  return bench::write_json_file(path, root) ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --telemetry-json mode: run the standard workload instrumented and dump the
// obs/ snapshot — exercises the export path end to end from the bench binary.
// ---------------------------------------------------------------------------

int run_telemetry_json(const std::string& path) {
  constexpr std::size_t kDim = 4096;
  constexpr std::size_t kFeatures = 10;
  constexpr std::size_t kRows = 256;
  constexpr std::size_t kModels = 8;

  obs::set_enabled(true);
  util::Rng rng(0x0B5E);
  hdc::EncoderConfig ecfg;
  ecfg.kind = hdc::EncoderKind::kRffProjection;
  ecfg.input_dim = kFeatures;
  ecfg.dim = kDim;
  const auto encoder = hdc::make_encoder(ecfg);

  std::vector<double> flat(kRows * kFeatures);
  std::vector<double> targets(kRows);
  for (double& f : flat) {
    f = rng.normal();
  }
  for (std::size_t i = 0; i < kRows; ++i) {
    targets[i] = std::sin(0.1 * static_cast<double>(i));
  }
  const data::Dataset rows("telemetry-bench", kFeatures, std::move(flat),
                           std::move(targets));
  const core::EncodedDataset enc = core::EncodedDataset::from(*encoder, rows);

  core::RegHDConfig rcfg;
  rcfg.dim = kDim;
  rcfg.models = kModels;
  core::MultiModelRegressor reg(rcfg);
  for (std::size_t i = 0; i < enc.size(); ++i) {
    reg.train_step(enc.sample(i), enc.target(i));
  }
  reg.requantize();
  benchmark::DoNotOptimize(reg.predict_batch(enc));

  const obs::TelemetrySnapshot snap = obs::snapshot();
  std::ofstream out(path);
  if (!out) {
    return 1;
  }
  out << obs::to_json(snap);
  return out.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--telemetry-json" || arg.rfind("--telemetry-json=", 0) == 0) {
      const std::string path =
          arg.size() > 17 ? arg.substr(17) : std::string("BENCH_telemetry.json");
      return run_telemetry_json(path);
    }
    if (arg == "--train-json" || arg.rfind("--train-json=", 0) == 0) {
      const std::string path =
          arg.size() > 13 ? arg.substr(13) : std::string("BENCH_train.json");
      return run_train_json(path);
    }
    if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      const std::string path =
          arg.size() > 7 ? arg.substr(7) : std::string("BENCH_kernels.json");
      return run_kernel_json(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
