#include "core/multi_model.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <numeric>

#include <cstring>

#include "core/early_stopping.hpp"
#include "hdc/encoding.hpp"
#include "hdc/kernel_backend.hpp"
#include "hdc/ops.hpp"
#include "hdc/random_hv.hpp"
#include "obs/telemetry.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/statistics.hpp"

namespace reghd::core {

namespace {

/// Per-step arena work, 2k·D accumulator components, below which
/// train_epoch's fused per-sample loop stays on one thread. A team costs
/// 2–3× the epoch's CPU time (its members spin between shares and stream
/// every sample themselves); from 65536 up it returns ≈ 1.8× in wall time,
/// below it 1.0–1.8× depending on D, too little to pay for cores a busy host
/// needs elsewhere (DESIGN §11.7 has the measured table).
constexpr std::size_t kTeamMinStepWork = 65536;

/// Every row of `train`, in order: the row list of the whole-arena forms of
/// fit() and init_clusters().
std::vector<std::size_t> all_rows(const EncodedDataset& train) {
  std::vector<std::size_t> rows(train.size());
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

void check_training_rows(const EncodedDataset& train, std::span<const std::size_t> rows,
                         std::size_t dim) {
  REGHD_CHECK(!rows.empty(), "cannot fit on an empty training set");
  REGHD_CHECK(train.dim() == dim,
              "training data dim " << train.dim() << " != configured dim " << dim);
  for (const std::size_t r : rows) {
    REGHD_CHECK(r < train.size(), "training row " << r << " out of range for "
                                                  << train.size() << " samples");
  }
}

}  // namespace

MultiModelRegressor::MultiModelRegressor(const RegHDConfig& config) : config_(config) {
  config_.validate();
  reset();
}

void MultiModelRegressor::reset() {
  util::Rng rng(config_.seed);
  util::Rng cluster_rng = rng.split();
  const std::size_t k = config_.models;

  arena_.assign(2 * k * config_.dim, 0.0);
  clusters_.assign(k, ClusterCenter{});
  models_.assign(k, RegressionModel(config_.dim));
  for (std::size_t i = 0; i < k; ++i) {
    // Paper §2.4: cluster hypervectors initialized to random binary values
    // (the row is zero, so adding the packed ±1 vector writes it exactly).
    hdc::add_scaled(arena_row(i), hdc::random_bipolar(config_.dim, cluster_rng), 1.0);
    clusters_[i].requantize(arena_row(i));
    models_[i].requantize(arena_row(k + i));
  }
  rebuild_packed_bank();
}

void MultiModelRegressor::restore(State state) {
  arena_ = std::move(state.arena);
  clusters_ = std::move(state.clusters);
  models_ = std::move(state.models);
  rebuild_packed_bank();
}

void MultiModelRegressor::build_packed_bank_into(PackedTernaryBank& bank) const {
  const PredictionMode mode = config_.prediction_mode();
  const std::size_t d = config_.dim;
  const std::size_t words = (d + 63) / 64;
  const std::size_t k_c = clusters_.size();
  // Model rows ride in the bank whenever the model term is a popcount shape
  // (binary or ternary snapshots); real-precision models stay out (the
  // scorer reads them from the arena).
  const bool bank_models = mode.model == ModelPrecision::kBinary ||
                           mode.model == ModelPrecision::kTernary;
  const std::size_t rows = k_c + (bank_models ? models_.size() : 0);
  bank.rows = rows;
  bank.words = words;
  bank.signs.resize(rows * words);
  bank.masks.resize(rows * words);
  bank.scale.assign(rows, 1.0);
  // Full-participation mask row: all d bits set, padding bits zero (the
  // dot_rows_ternary contract) — under it the masked bipolar dot degenerates
  // to the exact d − 2·Hamming of the binary scan.
  std::vector<std::uint64_t> full(words, ~0ULL);
  if (d % 64 != 0 && words > 0) {
    full[words - 1] = (1ULL << (d % 64)) - 1;
  }
  for (std::size_t c = 0; c < k_c; ++c) {
    std::memcpy(bank.signs.data() + c * words, clusters_[c].binary.words().data(),
                words * sizeof(std::uint64_t));
    std::memcpy(bank.masks.data() + c * words, full.data(),
                words * sizeof(std::uint64_t));
  }
  if (bank_models) {
    for (std::size_t m = 0; m < models_.size(); ++m) {
      const std::size_t r = k_c + m;
      std::memcpy(bank.signs.data() + r * words, models_[m].binary.words().data(),
                  words * sizeof(std::uint64_t));
      if (mode.model == ModelPrecision::kTernary) {
        std::memcpy(bank.masks.data() + r * words,
                    models_[m].ternary_mask.words().data(),
                    words * sizeof(std::uint64_t));
        bank.scale[r] = models_[m].gamma_ternary;
      } else {
        std::memcpy(bank.masks.data() + r * words, full.data(),
                    words * sizeof(std::uint64_t));
        bank.scale[r] = models_[m].gamma;
      }
    }
  }
  bank.valid = true;
}

void MultiModelRegressor::rebuild_packed_bank() {
  build_packed_bank_into(packed_bank_);
}

std::size_t MultiModelRegressor::packed_rows_read(PredictionMode mode) const {
  const std::size_t k = models_.size();
  if (mode.query == QueryPrecision::kBinary && mode.model != ModelPrecision::kReal) {
    return 2 * k;
  }
  return config_.cluster_mode == ClusterMode::kFullPrecision ? 0 : k;
}

void MultiModelRegressor::size_scratch(PredictScratch& s) const {
  const std::size_t k = models_.size();
  s.scores.resize(2 * k);
  s.qscores.resize(2 * k);
  s.sims.resize(k);
  s.conf.resize(k);
  s.block.resize(kScanBlock * 2 * k);
}

MultiModelRegressor::PredictScratch& MultiModelRegressor::row_scratch(
    PredictionMode mode) const {
  thread_local PredictScratch s;
  size_scratch(s);
  if (!packed_bank_.valid && packed_rows_read(mode) > 0) {
    build_packed_bank_into(s.packed);
  }
  return s;
}

const PackedTernaryBank& MultiModelRegressor::scan_bank(PredictionMode mode,
                                                        const PredictScratch& s) const {
  const PackedTernaryBank& bank = packed_bank_.valid ? packed_bank_ : s.packed;
  const std::size_t rows = packed_rows_read(mode);
  REGHD_CHECK(rows == 0 || (bank.rows >= rows && bank.words == (config_.dim + 63) / 64),
              "packed bank " << bank.rows << "×" << bank.words << " does not cover the "
                             << rows << " rows this mode scans (stale predict scratch?)");
  return bank;
}

std::pair<std::size_t, std::size_t> MultiModelRegressor::real_rows(
    PredictionMode mode) const {
  const std::size_t k = models_.size();
  const bool real_query = mode.query == QueryPrecision::kReal;
  const bool real_clusters = config_.cluster_mode == ClusterMode::kFullPrecision;
  const bool real_models = mode.model == ModelPrecision::kReal;
  const std::size_t lo = real_clusters && real_query ? 0 : k;
  const std::size_t hi = real_models && real_query ? 2 * k : k;
  return {lo, hi};
}

double MultiModelRegressor::score_row(const hdc::EncodedSampleView& q, PredictionMode mode,
                                      const PackedTernaryBank& bank,
                                      PredictScratch& s) const {
  REGHD_CHECK(q.real.dim() == config_.dim,
              "sample dim " << q.real.dim() << " != configured dim " << config_.dim);
  // Real rows against a real query: one dot_rows_multi sweep over their
  // contiguous range of the arena, in place (per row exactly dot_real_real).
  const auto [lo, hi] = real_rows(mode);
  if (lo < hi) {
    const std::size_t d = config_.dim;
    hdc::active_backend().dot_rows_multi(arena_.data() + lo * d, d, hi - lo,
                                         q.real.values().data(), d, 1, d,
                                         s.scores.data() + lo);
  }
  return finish_scan(q, mode, bank, s);
}

double MultiModelRegressor::finish_scan(const hdc::EncodedSampleView& q, PredictionMode mode,
                                        const PackedTernaryBank& bank,
                                        PredictScratch& s) const {
  const hdc::KernelBackend& kb = hdc::active_backend();
  const std::size_t d = config_.dim;
  const std::size_t k = models_.size();
  // Packed rows — the quantized clusters' C^b, and binary/ternary models
  // against a binary query — one dot_rows_ternary sweep over their range of
  // the bank: per row the masked bipolar dot, which a full-mask row
  // reduces to d − 2·Hamming.
  const std::size_t packed_lo = config_.cluster_mode == ClusterMode::kFullPrecision ? k : 0;
  const std::size_t packed_hi = packed_rows_read(mode);
  if (packed_lo < packed_hi) {
    const std::size_t w = bank.words;
    kb.dot_rows_ternary(q.binary.words().data(), bank.signs.data() + packed_lo * w,
                        bank.masks.data() + packed_lo * w, w, packed_hi - packed_lo, d,
                        s.qscores.data() + packed_lo);
    for (std::size_t r = packed_lo; r < packed_hi; ++r) {
      s.scores[r] = static_cast<double>(s.qscores[r]);
    }
  }
  // Every row neither sweep covered scores on its own with the §3.2 kernels:
  // an arena row (real clusters, real models) against a binary query, or a
  // snapshot model against a real query.
  const auto [real_lo, real_hi] = real_rows(mode);
  for (std::size_t r = 0; r < 2 * k; ++r) {
    if ((r >= real_lo && r < real_hi) || (r >= packed_lo && r < packed_hi)) {
      continue;
    }
    if (r < k || mode.model == ModelPrecision::kReal) {
      s.scores[r] = raw_query_dot(arena_row(r), q, mode.query);
    } else {
      const RegressionModel& model = models_[r - k];
      s.scores[r] = mode.model == ModelPrecision::kTernary
                        ? hdc::masked_dot(q.real, model.binary, model.ternary_mask)
                        : hdc::dot(q.real, model.binary);
    }
  }
  return finish_row(mode, query_norm2(q, mode.query), s);
}

double MultiModelRegressor::finish_row(PredictionMode mode, double query_norm2,
                                       PredictScratch& s) const {
  const std::size_t k = models_.size();
  const double dd = static_cast<double>(config_.dim);
  if (config_.cluster_mode == ClusterMode::kFullPrecision) {
    // Eq. 5 cosine; cluster norms are maintained incrementally.
    const double qn = std::sqrt(query_norm2);
    for (std::size_t c = 0; c < k; ++c) {
      const double cn = std::sqrt(clusters_[c].norm2);
      s.sims[c] = (cn == 0.0 || qn == 0.0) ? 0.0 : s.scores[c] / (cn * qn);
    }
  } else {
    // §3.1 Hamming similarity from the exact distance h = (d − score) / 2;
    // range [−1, 1] matches the cosine scale.
    for (std::size_t c = 0; c < k; ++c) {
      const double h = (dd - s.scores[c]) / 2.0;
      s.sims[c] = 1.0 - 2.0 * h / dd;
    }
  }
  std::copy(s.sims.begin(), s.sims.begin() + static_cast<std::ptrdiff_t>(k), s.conf.begin());
  confidences_into(std::span<double>(s.conf.data(), k));
  // Eq. 6 over the model outputs (1/D)·M_i·S, scaled by γ (binary) or γ_t
  // (ternary) for a snapshot model.
  double y = 0.0;
  for (std::size_t m = 0; m < k; ++m) {
    double& out = s.scores[k + m];
    if (mode.model == ModelPrecision::kBinary) {
      out = models_[m].gamma * out / dd;
    } else if (mode.model == ModelPrecision::kTernary) {
      out = models_[m].gamma_ternary * out / dd;
    } else {
      out = out / dd;
    }
    y += s.conf[m] * out;
  }
  return y;
}

std::vector<double> MultiModelRegressor::similarities(
    const hdc::EncodedSampleView& sample) const {
  return predict_detail(sample).similarities;
}

std::size_t MultiModelRegressor::assign_cluster(const hdc::EncodedSampleView& sample) const {
  return predict_detail(sample).best_cluster;
}

void MultiModelRegressor::confidences_into(std::span<double> sims) const {
  if (config_.normalize_similarities && sims.size() > 1) {
    double mean = 0.0;
    for (const double s : sims) {
      mean += s;
    }
    mean /= static_cast<double>(sims.size());
    double var = 0.0;
    for (const double s : sims) {
      var += (s - mean) * (s - mean);
    }
    var /= static_cast<double>(sims.size());
    const double inv_std = 1.0 / (std::sqrt(var) + 1e-12);
    for (double& s : sims) {
      s = (s - mean) * inv_std;
    }
  }
  util::softmax_inplace(sims, config_.softmax_temperature);
}

double MultiModelRegressor::predict(const hdc::EncodedSampleView& sample) const {
  const obs::StageTimer timer(obs::Histo::kPredictNs);
  obs::count(obs::Counter::kPredicts);
  const PredictionMode mode = config_.prediction_mode();
  PredictScratch& s = row_scratch(mode);
  return score_row(sample, mode, scan_bank(mode, s), s);
}

PredictionDetail MultiModelRegressor::predict_detail(const hdc::EncodedSampleView& sample) const {
  const PredictionMode mode = config_.prediction_mode();
  PredictScratch& s = row_scratch(mode);
  const auto k = static_cast<std::ptrdiff_t>(models_.size());
  PredictionDetail detail;
  detail.prediction = score_row(sample, mode, scan_bank(mode, s), s);
  detail.similarities.assign(s.sims.begin(), s.sims.begin() + k);
  detail.confidences.assign(s.conf.begin(), s.conf.begin() + k);
  detail.model_outputs.assign(s.scores.begin() + k, s.scores.begin() + 2 * k);
  detail.best_cluster = static_cast<std::size_t>(std::distance(
      detail.similarities.begin(),
      std::max_element(detail.similarities.begin(), detail.similarities.end())));
  return detail;
}

double MultiModelRegressor::predict_one(const hdc::Encoder& encoder,
                                        std::span<const double> features) const {
  const obs::StageTimer timer(obs::Histo::kPredictOneNs);
  REGHD_CHECK(encoder.dim() == config_.dim,
              "encoder dim " << encoder.dim() << " != configured dim " << config_.dim);
  const PredictionMode mode = config_.prediction_mode();
  const bool real_fusable = config_.cluster_mode == ClusterMode::kFullPrecision &&
                            mode.query == QueryPrecision::kReal &&
                            mode.model == ModelPrecision::kReal;
  const bool quantized_fusable =
      (config_.cluster_mode == ClusterMode::kQuantized ||
       config_.cluster_mode == ClusterMode::kNaiveBinary) &&
      mode.query == QueryPrecision::kBinary &&
      (mode.model == ModelPrecision::kBinary ||
       mode.model == ModelPrecision::kTernary);
  if (!encoder.supports_block_encode() || !(real_fusable || quantized_fusable)) {
    // Materializing path: full encode, then the ordinary Eq. 5/6 predict.
    // Covers encoders without block support and the mode combinations
    // whose model term is not fusable (e.g. ternary model with a real
    // query — a sparse masked float dot that wants the whole query anyway).
    obs::count(obs::Counter::kPredictFusedFallbacks);
    return predict(encoder.encode(features));
  }

  // One L1-resident slice of the hyperspace per iteration: the 8 KB block
  // plus the bank rows' slices stay in cache from the encode stage through
  // the bank scan — the software mirror of sim/accelerator.hpp's
  // encode → similarity-search → confidence → predict stage pipeline, with
  // blocks in place of its streamed beats. 1024 is a multiple of 64 (the
  // dot_rows_block / word-packing granularity), so only the final block may
  // be ragged.
  constexpr std::size_t kFusedBlock = 1024;
  const hdc::KernelBackend& kb = hdc::active_backend();
  const std::size_t d = config_.dim;
  const std::size_t k_c = clusters_.size();
  const std::size_t k_m = models_.size();
  obs::count(obs::Counter::kPredicts);
  obs::count(obs::Counter::kPredictFused);

  // thread_local scratch: predict_one is const and must stay safe to call
  // concurrently, without paying per-call allocations on the latency path.
  // Both fused forms accumulate the raw row scores into s.scores and finish
  // through the scorer's own finish_row. The encoded block and the carried
  // state are cache-line aligned: the AVX-512 kernels read them 64 bytes at
  // a time, and with std::vector's 16-byte alignment every such load could
  // split two lines, depending only on what the heap handed out before.
  PredictScratch& s = row_scratch(mode);
  thread_local util::AlignedVector<double> block;
  block.resize(kFusedBlock);

  if (real_fusable) {
    // The full-precision arena scan, one block at a time: dot_rows_block
    // carries each row's lane-accumulator state across blocks and finishes
    // bit-identical to its backend's dot_real_real, so the scores equal the
    // scorer's dot_rows_multi sweep exactly. The query's own norm² rides as
    // one extra bank row (q·q through the same kernel — exactly how encode()
    // computes real_norm2).
    const std::size_t rows = k_c + k_m + 1;
    thread_local util::AlignedVector<double> state;
    thread_local std::vector<const double*> row_ptrs;
    state.assign(rows * hdc::kDotRowsBlockState, 0.0);
    row_ptrs.resize(rows);
    s.scores.resize(rows);
    for (std::size_t j0 = 0; j0 < d; j0 += kFusedBlock) {
      const std::size_t len = std::min(kFusedBlock, d - j0);
      const bool last = j0 + len == d;
      encoder.encode_real_block(features, j0, len, block.data());
      for (std::size_t r = 0; r < k_c + k_m; ++r) {
        row_ptrs[r] = arena_.data() + r * d + j0;
      }
      row_ptrs[k_c + k_m] = block.data();
      kb.dot_rows_block(block.data(), row_ptrs.data(), rows, len, last,
                        state.data(), s.scores.data());
    }
    return finish_row(mode, s.scores[k_c + k_m], s);
  }

  // Quantized bank scan (§3.1 + §3.2), blocked: each encoded block is
  // sign-packed (bit-identical to the slice of encode()'s sign/pack — word
  // boundaries align because non-final blocks are 64-multiples) and scored
  // against the word-offset slice of the packed 2-bit-plane bank; the
  // per-block masked popcount scores are integers, summed exactly (far below
  // 2^53) into totals equal to the unblocked dot_rows_ternary.
  const PackedTernaryBank& bank = scan_bank(mode, s);
  thread_local std::vector<std::uint64_t> qwords;
  qwords.resize(kFusedBlock / 64);
  std::fill(s.scores.begin(), s.scores.end(), 0.0);
  for (std::size_t j0 = 0; j0 < d; j0 += kFusedBlock) {
    const std::size_t len = std::min(kFusedBlock, d - j0);
    encoder.encode_real_block(features, j0, len, block.data());
    kb.sign_pack(block.data(), qwords.data(), len);
    const std::size_t w0 = j0 / 64;
    kb.dot_rows_ternary(qwords.data(), bank.signs.data() + w0, bank.masks.data() + w0,
                        bank.words, k_c + k_m, len, s.qscores.data());
    for (std::size_t r = 0; r < k_c + k_m; ++r) {
      s.scores[r] += static_cast<double>(s.qscores[r]);
    }
  }
  return finish_row(mode, static_cast<double>(d), s);
}

void MultiModelRegressor::scan_rows(const EncodedDataset& dataset, std::size_t r0,
                                    std::size_t rn, std::span<double> out,
                                    PredictScratch& scratch) const {
  const std::size_t k = models_.size();
  REGHD_CHECK(scratch.scores.size() >= 2 * k && scratch.qscores.size() >= 2 * k &&
                  scratch.sims.size() >= k && scratch.conf.size() >= k &&
                  scratch.block.size() >= kScanBlock * 2 * k,
              "predict scratch holds " << scratch.sims.size()
                                       << " similarity slots, prepared for a smaller model than "
                                       << k << " clusters");
  REGHD_CHECK(dataset.dim() == config_.dim,
              "sample dim " << dataset.dim() << " != configured dim " << config_.dim);
  const PredictionMode mode = config_.prediction_mode();
  const PackedTernaryBank& bank = scan_bank(mode, scratch);
  const auto [lo, hi] = real_rows(mode);
  const std::size_t rows = hi - lo;
  const std::size_t d = config_.dim;
  // score_row over blocks of kScanBlock rows: the real-row sweep is one
  // dot_rows_multi call for the whole block (Q·Bankᵀ, so each bank row is
  // streamed once per tile of queries, every score bit-identical to
  // score_row's single-query sweep), then each row finishes as score_row does.
  for (std::size_t b0 = r0; b0 < rn; b0 += kScanBlock) {
    const std::size_t nb = std::min(kScanBlock, rn - b0);
    if (rows > 0) {
      hdc::active_backend().dot_rows_multi(arena_.data() + lo * d, d, rows,
                                           dataset.real_plane().data() + b0 * d, d, nb, d,
                                           scratch.block.data());
    }
    for (std::size_t j = 0; j < nb; ++j) {
      std::copy_n(scratch.block.data() + j * rows, rows, scratch.scores.data() + lo);
      out[b0 + j] = finish_scan(dataset.sample(b0 + j), mode, bank, scratch);
    }
  }
}

std::vector<double> MultiModelRegressor::predict_batch(const EncodedDataset& dataset,
                                                       std::size_t threads) const {
  const obs::StageTimer timer(obs::Histo::kPredictBatchNs);
  obs::count(obs::Counter::kPredictBatchRows, dataset.size());
  std::vector<double> out(dataset.size());
  constexpr std::size_t kChunk = 64;
  util::parallel_for(
      (dataset.size() + kChunk - 1) / kChunk,
      [&](std::size_t chunk) {
        scan_rows(dataset, chunk * kChunk, std::min(dataset.size(), (chunk + 1) * kChunk),
                  out, row_scratch(config_.prediction_mode()));
      },
      threads != 0 ? threads : config_.threads);
  return out;
}

void MultiModelRegressor::prepare_predict_scratch(PredictScratch& scratch) const {
  if (!packed_bank_.valid) {
    build_packed_bank_into(scratch.packed);
  }
  size_scratch(scratch);
  scratch.prepared = true;
}

void MultiModelRegressor::predict_batch_into(const EncodedDataset& dataset,
                                             std::span<double> out,
                                             PredictScratch& scratch) const {
  REGHD_CHECK(out.size() >= dataset.size(),
              "predict_batch_into output span holds " << out.size()
                                                      << " slots for "
                                                      << dataset.size() << " rows");
  REGHD_CHECK(scratch.prepared, "predict scratch was never prepared");
  const obs::StageTimer timer(obs::Histo::kPredictBatchNs);
  obs::count(obs::Counter::kPredictBatchRows, dataset.size());
  scan_rows(dataset, 0, dataset.size(), out, scratch);
}

double MultiModelRegressor::evaluate_mse(const EncodedDataset& dataset) const {
  REGHD_CHECK(!dataset.empty(), "cannot evaluate on an empty dataset");
  const std::vector<double> pred = predict_batch(dataset);
  // Serial accumulation in index order keeps the MSE bit-identical for any
  // thread count.
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double e = pred[i] - dataset.target(i);
    acc += e * e;
  }
  return acc / static_cast<double>(dataset.size());
}

std::size_t MultiModelRegressor::plan_update(std::size_t j,
                                             const hdc::EncodedSampleView& sample,
                                             double target, double prediction,
                                             const PredictScratch& s) {
  const std::size_t k = models_.size();
  double error = target - prediction;
  if (config_.error_clip > 0.0) {
    error = std::clamp(error, -config_.error_clip, config_.error_clip);
  }
  const double* sims = s.sims.data();
  const auto winner =
      static_cast<std::size_t>(std::distance(sims, std::max_element(sims, sims + k)));
  obs::count_cluster_hit(winner);
  double* row = coeff_.data() + j * 2 * k;
  std::fill_n(row, 2 * k, 0.0);
  // Eq. 8 / Eq. 9: the winning center moves by 1 − δ_winner. The paper's
  // Eq. 9 updates the integer copy with the integer-encoded input even when
  // similarity search is binary; frozen in the naive-binarization foil.
  if (config_.cluster_mode != ClusterMode::kNaiveBinary) {
    row[winner] = 1.0 - sims[winner];
  }
  // Eq. 7 on the model rows.
  const double normalizer = update_normalizer(sample, config_.query_precision);
  double* coeff = row + k;
  if (config_.update_rule == UpdateRule::kConfidenceWeighted) {
    // Mixture-normalized LMS: dividing by Σδ'² makes the joint update move
    // this sample's blended prediction by exactly α·err, independent of how
    // soft the confidences are (for one-hot confidence this is Eq. 7
    // verbatim).
    double conf_sq = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      conf_sq += s.conf[i] * s.conf[i];
    }
    const double mix_norm = conf_sq > 0.0 ? 1.0 / conf_sq : 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      coeff[i] = config_.learning_rate * error * s.conf[i] * normalizer * mix_norm;
    }
  } else {
    coeff[winner] = config_.learning_rate * error * normalizer;
  }
  return winner;
}

void MultiModelRegressor::plan_step(const hdc::EncodedSampleView& sample, double target,
                                    double prediction, const PredictScratch& s) {
  coeff_.resize(2 * models_.size());
  const std::size_t winner = plan_update(0, sample, target, prediction, s);
  const double weight = coeff_[winner];
  if (weight == 0.0) {
    return;
  }
  obs::count(obs::Counter::kClusterUpdates);
  // ‖C‖² is maintained incrementally: ‖C + w·S‖² = ‖C‖² + 2w·(C·S) + w²·‖S‖²,
  // with C·S taken before the update — the scan's raw cluster score when
  // the scan was one dot_rows_multi sweep (per row exactly dot_real_real).
  const double dot_cs = real_arena_scan()
                            ? s.scores[winner]
                            : hdc::dot(hdc::RealHVView(arena_row(winner)), sample.real);
  double& norm2 = clusters_[winner].norm2;
  norm2 += 2.0 * weight * dot_cs + weight * weight * sample.real_norm2;
  norm2 = std::max(norm2, 0.0);
}

void MultiModelRegressor::apply_update(const hdc::EncodedSampleView& sample, double target,
                                       double prediction, const PredictScratch& s) {
  const std::size_t d = config_.dim;
  const std::size_t k = models_.size();
  plan_step(sample, target, prediction, s);
  const hdc::KernelBackend& kb = hdc::active_backend();
  if (config_.query_precision == QueryPrecision::kReal) {
    // Eq. 7 and Eq. 8 as one sweep over the arena.
    kb.update_dot_rows(arena_.data(), d, 2 * k, coeff_.data(), sample.real.values().data(),
                       nullptr, d, nullptr);
  } else {
    // Cluster rows still take the real sample (Eq. 9); model rows its
    // packed sign.
    kb.update_dot_rows(arena_.data(), d, k, coeff_.data(), sample.real.values().data(),
                       nullptr, d, nullptr);
    for (std::size_t m = 0; m < k; ++m) {
      if (coeff_[k + m] != 0.0) {
        update_accumulator(mutable_model_accumulator(m), sample, coeff_[k + m],
                           config_.query_precision);
      }
    }
  }
}

double MultiModelRegressor::train_step(const hdc::EncodedSampleView& sample, double target) {
  const obs::StageTimer timer(obs::Histo::kTrainStepNs);
  obs::count(obs::Counter::kTrainSteps);
  const PredictionMode mode = train_mode();
  PredictScratch& s = row_scratch(mode);
  const double prediction = score_row(sample, mode, scan_bank(mode, s), s);
  apply_update(sample, target, prediction, s);
  return prediction;
}

void MultiModelRegressor::train_batch(const EncodedDataset& data,
                                      std::span<const std::size_t> indices,
                                      std::span<double> predictions, std::size_t threads) {
  REGHD_CHECK(predictions.size() == indices.size(),
              "train_batch needs one prediction slot per index, got "
                  << predictions.size() << " for " << indices.size());
  if (indices.empty()) {
    return;
  }
  // Every row is read raw (target, real plane, norms), so bad ids are
  // refused up front, before any state changes.
  check_training_rows(data, indices, config_.dim);
  const obs::StageTimer timer(obs::Histo::kTrainBatchNs);
  obs::count(obs::Counter::kTrainBatches);
  obs::count(obs::Counter::kTrainBatchSamples, indices.size());
  const std::size_t b = indices.size();
  const std::size_t k = models_.size();
  const std::size_t use_threads = threads != 0 ? threads : config_.threads;
  const PredictionMode mode = train_mode();
  coeff_.resize(b * 2 * k);

  // Phase 1 — per-sample Eq. 5/6 quantities against the entry (batch-start)
  // state, parallel over samples: train_step's scorer and update plan, each
  // sample's results landing in its own plan slots, so phase 1 is
  // deterministic for any thread count and a one-sample batch is
  // bit-identical to train_step. Nothing is written to the model until
  // phase 2, so every sample reads the same state.
  util::parallel_for(
      b,
      [&](std::size_t j) {
        PredictScratch& s = row_scratch(mode);
        const std::size_t row = indices[j];
        const hdc::EncodedSampleView q = data.sample(row);
        predictions[j] = score_row(q, mode, scan_bank(mode, s), s);
        (void)plan_update(j, q, data.target(row), predictions[j], s);
      },
      use_threads);

  // Phase 2a — Eq. 7 model updates, dimension-sliced across workers. Per
  // accumulator component the coefficients chain in ascending list order j,
  // exactly as a serial sample-order replay, and slicing cannot perturb that:
  // add_scaled_real rounds every component as an independent mul-then-add and
  // add_scaled_binary adds an exact ±coeff, so a component's value never
  // depends on which slice (or thread) computed it. Looping j outer / model
  // inner keeps each sample's row slice hot across the k model updates and
  // streams the encoded plane exactly once per batch — the per-model-chain
  // alternative re-reads it k times over, which made the first cut of this
  // path slower than the sequential trainer it was meant to beat.
  {
    const hdc::KernelBackend& kb = hdc::active_backend();
    const std::size_t d = config_.dim;
    const bool real_updates = config_.query_precision == QueryPrecision::kReal;
    const double* real_plane = data.real_plane().data();
    const std::uint64_t* sign_rows = data.binary_plane().data();
    const std::size_t words = data.words_per_row();
    const std::size_t workers =
        use_threads != 0 ? use_threads : util::default_thread_count();
    // Slice boundaries on 64-component multiples, so every slice starts on a
    // word of the packed sign plane (and on a cache line of the real one);
    // boundary placement is free to vary with the worker count because
    // component rounding is position-blind.
    const std::size_t slices = std::min(std::max<std::size_t>(workers, 1),
                                        std::max<std::size_t>(d / 64, 1));
    const std::size_t chunk = (((d + slices - 1) / slices) + 63) & ~std::size_t{63};
    util::parallel_for(
        slices,
        [&](std::size_t s) {
          const std::size_t d0 = std::min(d, s * chunk);
          const std::size_t d1 = std::min(d, d0 + chunk);
          if (d0 >= d1) {
            return;
          }
          const std::size_t len = d1 - d0;
          for (std::size_t j = 0; j < b; ++j) {
            const std::size_t row = indices[j];
            const double* coeff = coeff_.data() + j * 2 * k + k;
            for (std::size_t m = 0; m < k; ++m) {
              if (coeff[m] == 0.0) {
                continue;  // train_step's skip: keep −0 components intact
              }
              double* acc = arena_row(k + m).data() + d0;
              if (real_updates) {
                kb.add_scaled_real(acc, real_plane + row * d + d0, coeff[m], len);
              } else {
                kb.add_scaled_binary(acc, sign_rows + row * words + d0 / 64, coeff[m],
                                     len);
              }
            }
          }
        },
        use_threads);
  }

  // Phase 2b — Eq. 8 cluster updates as k independent chains (a sample only
  // updates its winner, so each chain streams just its own samples). The
  // incremental-norm dot needs the whole accumulator at application time,
  // which is why this phase cannot dimension-slice like 2a; within a chain
  // the float accumulation order is the sample order, independent of thread
  // count.
  if (config_.cluster_mode != ClusterMode::kNaiveBinary) {
    util::parallel_for(
        k,
        [&](std::size_t c_idx) {
          const std::span<double> acc = arena_row(c_idx);
          double& norm2 = clusters_[c_idx].norm2;
          for (std::size_t j = 0; j < b; ++j) {
            // Nonzero only at the sample's winner, and only when it moves.
            const double weight = coeff_[j * 2 * k + c_idx];
            if (weight == 0.0) {
              continue;
            }
            obs::count(obs::Counter::kClusterUpdates);
            // Same incremental-norm bookkeeping as train_step; the dot runs
            // against the accumulator with this cluster's earlier in-batch
            // updates applied, exactly as a serial sample-order replay would.
            const hdc::EncodedSampleView s = data.sample(indices[j]);
            const double dot_cs = hdc::dot(hdc::RealHVView(acc), s.real);
            hdc::add_scaled(acc, s.real, weight);
            norm2 += 2.0 * weight * dot_cs + weight * weight * s.real_norm2;
            norm2 = std::max(norm2, 0.0);
          }
        },
        use_threads);
  }
}

void MultiModelRegressor::sparsify(double fraction) {
  REGHD_CHECK(fraction >= 0.0 && fraction < 1.0,
              "sparsity fraction must lie in [0,1), got " << fraction);
  if (fraction == 0.0) {
    return;
  }
  const auto keep_from = static_cast<std::size_t>(
      fraction * static_cast<double>(config_.dim));
  std::vector<double> magnitudes(config_.dim);
  for (std::size_t i = 0; i < models_.size(); ++i) {
    const std::span<double> acc = mutable_model_accumulator(i);
    for (std::size_t j = 0; j < config_.dim; ++j) {
      magnitudes[j] = std::abs(acc[j]);
    }
    // Threshold at the `fraction` quantile of |M_j| for this model.
    std::nth_element(magnitudes.begin(),
                     magnitudes.begin() + static_cast<std::ptrdiff_t>(keep_from),
                     magnitudes.end());
    const double threshold = magnitudes[keep_from];
    for (std::size_t j = 0; j < config_.dim; ++j) {
      if (std::abs(acc[j]) < threshold) {
        acc[j] = 0.0;
      }
    }
    models_[i].requantize(acc);
  }
  rebuild_packed_bank();
}

double MultiModelRegressor::model_sparsity() const {
  const std::size_t model_half = models_.size() * config_.dim;
  const auto zeros = std::count(arena_.end() - static_cast<std::ptrdiff_t>(model_half),
                                arena_.end(), 0.0);
  return static_cast<double>(zeros) / static_cast<double>(model_half);
}

void MultiModelRegressor::decay_models(double factor) {
  REGHD_CHECK(factor > 0.0 && factor <= 1.0,
              "decay factor must lie in (0,1], got " << factor);
  if (factor == 1.0) {
    return;
  }
  // The model half of the arena is one contiguous block; scaling is
  // elementwise, so one call equals k per-model calls bit for bit.
  const std::size_t model_half = models_.size() * config_.dim;
  hdc::scale(std::span<double>(arena_).last(model_half), factor);
}

void MultiModelRegressor::init_clusters_from_samples(const EncodedDataset& train,
                                                     std::span<const std::size_t> rows) {
  // Farthest-point sampling on the packed sign encodings: the first center is a
  // seeded-random sample; each next center is the sample with the smallest
  // maximum similarity to the centers chosen so far. O(k·N) Hamming passes.
  // Positions index the row list, so a row list picks exactly the centers a
  // subset arena of the same rows would.
  util::Rng rng(config_.seed ^ 0x494E4954ULL);  // "INIT"
  const std::size_t n = rows.size();
  std::vector<std::size_t> chosen;
  chosen.reserve(config_.models);
  chosen.push_back(static_cast<std::size_t>(rng.uniform_index(n)));

  std::vector<double> max_sim(n, -2.0);
  while (chosen.size() < config_.models) {
    const hdc::BinaryHVView last = train.sample(rows[chosen.back()]).binary;
    for (std::size_t i = 0; i < n; ++i) {
      max_sim[i] = std::max(max_sim[i],
                            hdc::hamming_similarity(train.sample(rows[i]).binary, last));
    }
    std::size_t best = 0;
    double best_score = 2.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (max_sim[i] < best_score) {
        best_score = max_sim[i];
        best = i;
      }
    }
    chosen.push_back(best);
  }

  for (std::size_t c = 0; c < config_.models; ++c) {
    const hdc::BinaryHVView init = train.sample(rows[chosen[c]]).binary;
    const std::span<double> row = arena_row(c);
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = init.bipolar(j);
    }
    clusters_[c].requantize(arena_row(c));
  }
  rebuild_packed_bank();
}

void MultiModelRegressor::init_clusters(const EncodedDataset& train) {
  init_clusters(train, all_rows(train));
}

void MultiModelRegressor::init_clusters(const EncodedDataset& train,
                                        std::span<const std::size_t> rows) {
  check_training_rows(train, rows, config_.dim);
  if (config_.cluster_init == ClusterInit::kFarthestPoint && config_.models > 1) {
    init_clusters_from_samples(train, rows);
  }
}

void MultiModelRegressor::merge_accumulate_delta(const MultiModelRegressor& replica,
                                                 const MultiModelRegressor& base) {
  REGHD_CHECK(replica.config_.dim == config_.dim && base.config_.dim == config_.dim,
              "shard merge requires matching dimensionality, got "
                  << replica.config_.dim << "/" << base.config_.dim << " vs "
                  << config_.dim);
  REGHD_CHECK(replica.models_.size() == models_.size() &&
                  base.models_.size() == models_.size(),
              "shard merge requires matching model counts, got "
                  << replica.models_.size() << "/" << base.models_.size() << " vs "
                  << models_.size());
  // One elementwise pass over the whole arena: each component rounds the
  // same way whichever row it belongs to.
  hdc::active_backend().merge_accumulate(arena_.data(), replica.arena_.data(),
                                         base.arena_.data(), arena_.size());
  // Snapshots, ‖C‖² and the packed bank are now stale relative to the merged
  // accumulators; requantize() (the caller's finalization step) recomputes
  // all three exactly.
  packed_bank_.valid = false;
}

void MultiModelRegressor::requantize() {
  obs::count(obs::Counter::kRequantizes);
  const std::size_t k = models_.size();
  for (std::size_t i = 0; i < k; ++i) {
    models_[i].requantize(arena_row(k + i));
  }
  for (std::size_t i = 0; i < k; ++i) {
    clusters_[i].requantize(arena_row(i));
  }
  // Requantize-on-update policy: every snapshot refresh re-packs the scan
  // bank, so the online path never scores through stale packed rows.
  rebuild_packed_bank();
}

double MultiModelRegressor::train_epoch(const EncodedDataset& train,
                                        std::span<const std::size_t> order,
                                        std::size_t epoch, const TrainingHooks* hooks) {
  // Every listed row is read raw (and the fused sweep reads sample t + 1
  // while it applies sample t), so bad ids are refused before any state
  // changes.
  if (!order.empty()) {
    check_training_rows(train, order, config_.dim);
  }
  double sq_err = 0.0;
  std::size_t since_requantize = 0;
  if (config_.batch_size == 0 && real_arena_scan()) {
    sq_err = fused_epoch(train, order);
  } else if (config_.batch_size == 0) {
    for (const std::size_t row : order) {
      const double y = train.target(row);
      const double before = train_step(train.sample(row), y);  // pre-update prediction
      sq_err += (y - before) * (y - before);
      if (config_.requantize_interval > 0 &&
          ++since_requantize >= config_.requantize_interval) {
        requantize();
        since_requantize = 0;
      }
    }
  } else {
    // Batch-frozen mini-batches over the same order. The per-sample loop
    // above checks the requantize counter after every sample; here the
    // counter advances a whole batch at a time, which coincides exactly at
    // B = 1 (the tested bit-identity anchor).
    const std::size_t bsize = config_.batch_size;
    std::vector<double> predictions(std::min(bsize, order.size()));
    std::size_t batch = 0;
    for (std::size_t b0 = 0; b0 < order.size(); b0 += bsize, ++batch) {
      const std::span<const std::size_t> idx =
          order.subspan(b0, std::min(bsize, order.size() - b0));
      train_batch(train, idx, std::span<double>(predictions.data(), idx.size()));
      for (std::size_t j = 0; j < idx.size(); ++j) {
        const double y = train.target(idx[j]);
        sq_err += (y - predictions[j]) * (y - predictions[j]);
      }
      since_requantize += idx.size();
      if (config_.requantize_interval > 0 &&
          since_requantize >= config_.requantize_interval) {
        requantize();
        since_requantize = 0;
      }
      if (hooks != nullptr && hooks->on_batch) {
        hooks->on_batch(epoch, batch, b0 + idx.size());
      }
    }
  }
  requantize();
  return sq_err;
}

std::size_t MultiModelRegressor::team_size() const {
  const std::size_t rows = 2 * models_.size();
  const std::size_t threads =
      config_.threads != 0 ? config_.threads : util::default_thread_count();
  if (rows * config_.dim < kTeamMinStepWork || threads <= 1) {
    return 1;
  }
  const std::size_t cap =
      std::min({threads, util::ThreadPool::global().thread_count(), rows});
  // The busiest member owns ⌈2k/cap⌉ rows; the fewest members that keep
  // that load finish a step as soon, with fewer to wait for.
  const std::size_t per_member = (rows + cap - 1) / cap;
  return (rows + per_member - 1) / per_member;
}

double MultiModelRegressor::fused_epoch(const EncodedDataset& train,
                                        std::span<const std::size_t> order) {
  // train_step per sample, with sample t's scan moved into sample t − 1's
  // update sweep: the one update_dot_rows sweep that applies sample t also
  // scores sample t + 1, so each sample streams the bank once. A requantize
  // in between changes no accumulator, only the ‖C‖² and snapshots
  // finish_row reads afterwards.
  //
  // The sweep is the only part that touches the arena, and each row's update
  // and score depend on that row alone, so a team of T threads splits it by
  // rows (DESIGN §11.7). Member w owns a block of cluster rows and a block of
  // model rows and sweeps each in one update_dot_rows call; its contract
  // makes every out[r] the backend's dot_real_real of the updated row
  // whatever rows share the call, so no bit depends on T. Every member owns
  // model rows, which all update each step, and cluster rows, of which only
  // the winner does, so the load stays even. Member 0 is the caller; it also
  // runs everything serial — finish_row, plan_step, the requantize cadence,
  // telemetry — between one step's arrivals and the next step's release.
  if (order.empty()) {
    return 0.0;  // and no team whose members would wait for a first step
  }
  const std::size_t d = config_.dim;
  const std::size_t k = models_.size();
  const PredictionMode mode = train_mode();
  PredictScratch& s = row_scratch(mode);
  const hdc::KernelBackend& kb = hdc::active_backend();
  const auto real_row = [&](std::size_t t) {
    return train.sample(order[t]).real.values().data();
  };
  const std::size_t members = team_size();

  // Member w's rows: clusters [w·k/T, (w+1)·k/T) rounded down and models
  // rounded up, so when T > k the members short of a cluster row get a
  // model row. Its scores, at most ⌈k/2⌉ + ⌈k/2⌉ ≤ k + 1 of them, land in
  // its own cache-line-aligned slot, so no two members write one line.
  struct Rows {
    std::size_t c0, nc, m0, nm;  // first cluster row and count, same for models
  };
  const auto rows_of = [&, k](std::size_t w) {
    const std::size_t c0 = w * k / members;
    const std::size_t m0 = (w * k + members - 1) / members;
    return Rows{c0, (w + 1) * k / members - c0, k + m0,
                ((w + 1) * k + members - 1) / members - m0};
  };
  const std::size_t slot = (k + 1 + 7) & ~std::size_t{7};
  util::AlignedVector<double> slots(members > 1 ? members * slot : 0);
  const auto sweep = [&, d](const Rows& rows, double* out, std::size_t t) {
    const double* next = t + 1 < order.size() ? real_row(t + 1) : nullptr;
    if (rows.nc > 0) {
      kb.update_dot_rows(arena_.data() + rows.c0 * d, d, rows.nc, coeff_.data() + rows.c0,
                         real_row(t), next, d, out);
    }
    if (rows.nm > 0) {
      kb.update_dot_rows(arena_.data() + rows.m0 * d, d, rows.nm, coeff_.data() + rows.m0,
                         real_row(t), next, d, out + rows.nc);
    }
  };
  // The leader's running state lives in its own frame, away from the
  // closure state the members read every step.
  const auto lead = [&](util::TeamSteps* team) {
    double sq_err = 0.0;
    std::size_t since_requantize = 0;
    for (std::size_t t = 0; t < order.size(); ++t) {
      const hdc::EncodedSampleView q = train.sample(order[t]);
      const double y = train.target(order[t]);
      double before = 0.0;  // pre-update prediction
      {
        const obs::StageTimer timer(obs::Histo::kTrainStepNs);
        obs::count(obs::Counter::kTrainSteps);
        before = t == 0 ? score_row(q, mode, scan_bank(mode, s), s)
                        : finish_row(mode, query_norm2(q, mode.query), s);
        plan_step(q, y, before, s);
        if (team == nullptr) {
          // One sweep over all 2k rows, scored in place.
          kb.update_dot_rows(arena_.data(), d, 2 * k, coeff_.data(), real_row(t),
                             t + 1 < order.size() ? real_row(t + 1) : nullptr, d,
                             s.scores.data());
        } else {
          team->release();
          sweep(rows_of(0), slots.data(), t);
          // A member that has not claimed its share yet (it lost its core,
          // or is still waking) gets it swept here instead of waited for.
          for (std::size_t w = 1; w < members; ++w) {
            if (team->steal(w)) {
              sweep(rows_of(w), slots.data() + w * slot, t);
            } else {
              team->wait_done(w);
            }
          }
          for (std::size_t w = 0; t + 1 < order.size() && w < members; ++w) {
            const Rows rows = rows_of(w);
            const double* out = slots.data() + w * slot;
            std::copy_n(out, rows.nc, s.scores.data() + rows.c0);
            std::copy_n(out + rows.nc, rows.nm, s.scores.data() + rows.m0);
          }
        }
      }
      sq_err += (y - before) * (y - before);
      if (config_.requantize_interval > 0 &&
          ++since_requantize >= config_.requantize_interval) {
        requantize();
        since_requantize = 0;
      }
    }
    return sq_err;
  };
  // Member w sweeps its share of the latest released step, unless the
  // leader took it first. While the leader plans the next step it pulls its
  // part of the sample after next into cache, which the next sweep streams
  // as q_next — in a shuffled epoch, otherwise a DRAM read every member
  // would stall on.
  const auto follow = [&, d](std::size_t w, util::TeamSteps& team) {
    const Rows rows = rows_of(w);
    double* const out = slots.data() + w * slot;
    const std::size_t bytes = d * sizeof(double);
    const std::size_t share = ((bytes + members - 2) / (members - 1) + 63) & ~std::size_t{63};
    const std::size_t b0 = std::min(bytes, (w - 1) * share);
    const std::size_t b1 = std::min(bytes, b0 + share);
    for (std::size_t next = 0; next < order.size();) {
      const std::uint64_t t = team.wait_release(next);
      if (t == util::TeamSteps::kStopped) {
        return;
      }
      if (team.claim(w, t)) {
        sweep(rows, out, t);
        team.done(w, t);
        if (t + 2 < order.size()) {
          const auto* row = reinterpret_cast<const char*>(real_row(t + 2));
          for (std::size_t b = b0; b < b1; b += 64) {
            __builtin_prefetch(row + b, 0, 2);
          }
        }
      }
      next = t + 1;
    }
  };

  if (members > 1) {
    util::TeamSteps team(members);
    double sq_err = 0.0;
    std::exception_ptr error;
    const bool ran = util::ThreadPool::global().run_team(members, [&](std::size_t w) {
      if (w != 0) {
        follow(w, team);
        return;
      }
      try {
        sq_err = lead(&team);
      } catch (...) {
        error = std::current_exception();
        team.stop();
      }
    });
    if (ran) {
      if (error) {
        std::rethrow_exception(error);
      }
      return sq_err;
    }
  }
  return lead(nullptr);
}

TrainingReport MultiModelRegressor::fit(const EncodedDataset& train,
                                        const EncodedDataset& val,
                                        const TrainingHooks* hooks) {
  return fit(train, all_rows(train), val, hooks);
}

TrainingReport MultiModelRegressor::fit(const EncodedDataset& train,
                                        std::span<const std::size_t> rows,
                                        const EncodedDataset& val,
                                        const TrainingHooks* hooks) {
  check_training_rows(train, rows, config_.dim);
  REGHD_CHECK(!val.empty(), "multi-model fit requires a validation set for early stopping");

  reset();
  if (config_.cluster_init == ClusterInit::kFarthestPoint && config_.models > 1) {
    init_clusters_from_samples(train, rows);
  }
  // The epoch shuffle permutes positions of the row list, so it draws the
  // same permutation as it would over a subset arena holding these rows.
  util::Rng rng(config_.seed ^ 0x45504F4348ULL);  // "EPOCH"
  std::vector<std::size_t> order(rows.begin(), rows.end());

  TrainingReport report;
  EarlyStopper stopper(config_.tolerance, config_.patience);
  State best = state();
  double best_val = std::numeric_limits<double>::infinity();

  for (std::size_t epoch = 0; epoch < config_.max_epochs; ++epoch) {
    rng.shuffle(order);
    const double online_sq_err = train_epoch(train, order, epoch, hooks);

    EpochRecord record;
    record.epoch = epoch;
    record.train_mse = online_sq_err / static_cast<double>(rows.size());
    record.val_mse = evaluate_mse(val);
    report.history.push_back(record);
    report.epochs_run = epoch + 1;

    if (record.val_mse < best_val) {
      best_val = record.val_mse;
      best = state();
    }
    if (hooks != nullptr && hooks->on_telemetry) {
      hooks->on_telemetry(epoch, obs::snapshot());
    }
    if (hooks != nullptr && hooks->checkpoint_every > 0 && hooks->on_checkpoint &&
        (epoch + 1) % hooks->checkpoint_every == 0) {
      hooks->on_checkpoint(epoch);
    }
    if (stopper.update(record.val_mse)) {
      report.converged = true;
      report.stop_reason = "validation MSE stabilized";
      break;
    }
  }
  if (!report.converged) {
    report.stop_reason = "reached max_epochs";
  }
  // Keep the best validation-epoch state, not the last one (restore re-packs
  // the bank from its snapshots).
  restore(std::move(best));
  report.best_val_mse = stopper.best();
  return report;
}

}  // namespace reghd::core
