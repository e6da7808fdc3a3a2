// Trained-model bytes pinned across storage-layout changes.
//
// Each case fits a small model and hashes the write_model_section bytes
// (every cluster and model accumulator component) with CRC32C, and the
// predict_batch output doubles likewise. The expected values were recorded
// before the accumulators moved into one bank arena (the first 15 fit CRCs)
// and before every predict and train path shared one Eq. 5/6 scorer (the
// rest); any change to how training reads or writes that state — batch
// phase 1's bank scan at every batch size, the per-sample path, the
// requantize cadence, keep-best restore, the shard merge and the refine
// epoch — or to how any mode scores a query shows up here as a different
// CRC.
//
// Dot reductions sum in backend-specific order, so the trained bytes (and
// their CRCs) are keyed by the kernel table that produced them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/encoded.hpp"
#include "core/model_io.hpp"
#include "core/multi_model.hpp"
#include "core/sharded_training.hpp"
#include "data/dataset.hpp"
#include "hdc/encoding.hpp"
#include "hdc/kernel_backend.hpp"
#include "util/crc32c.hpp"
#include "util/random.hpp"

namespace reghd::core {
namespace {

struct Expected {
  std::uint32_t avx512 = 0;
  std::uint32_t avx2 = 0;
  std::uint32_t scalar = 0;
};

/// The expected CRC for the live kernel table; false when the table has no
/// recorded value (e.g. neon), in which case the case is skipped.
bool expected_for_backend(const Expected& e, std::uint32_t& out) {
  const char* name = hdc::active_backend().name;
  if (std::strcmp(name, "avx512") == 0) {
    out = e.avx512;
  } else if (std::strcmp(name, "avx2") == 0) {
    out = e.avx2;
  } else if (std::strcmp(name, "scalar") == 0) {
    out = e.scalar;
  } else {
    return false;
  }
  return true;
}

data::Dataset make_dataset(std::size_t rows, std::size_t features, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> flat(rows * features);
  std::vector<double> targets(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    double sum = 0.0;
    for (std::size_t f = 0; f < features; ++f) {
      const double x = rng.normal(0.0, 1.0);
      flat[i * features + f] = x;
      sum += x * (f % 2 == 0 ? 0.6 : -0.3);
    }
    targets[i] = std::sin(sum) + 0.1 * sum;
  }
  return {"model-bytes", features, std::move(flat), std::move(targets)};
}

struct Data {
  EncodedDataset train;
  EncodedDataset val;
};

const Data& data() {
  static const Data d = [] {
    hdc::EncoderConfig enc;
    enc.input_dim = 5;
    enc.dim = 256;
    const auto encoder = hdc::make_encoder(enc);
    return Data{EncodedDataset::from(*encoder, make_dataset(96, 5, 0xB17E5), 1),
                EncodedDataset::from(*encoder, make_dataset(32, 5, 0x7A1), 1)};
  }();
  return d;
}

RegHDConfig base_config() {
  RegHDConfig cfg;
  cfg.dim = 256;
  cfg.models = 4;
  cfg.max_epochs = 4;
  cfg.requantize_interval = 10;
  return cfg;
}

std::uint32_t model_crc(const MultiModelRegressor& model) {
  std::ostringstream os(std::ios::binary);
  io::write_model_section(os, model);
  return util::crc32c(os.str());
}

/// CRC32C of a vector of doubles' bytes (predict_batch output).
std::uint32_t doubles_crc(const std::vector<double>& v) {
  return util::crc32c(std::string_view(reinterpret_cast<const char*>(v.data()),
                                       v.size() * sizeof(double)));
}

struct FitCase {
  ClusterMode mode;
  std::size_t batch_size;
  Expected crc;                ///< write_model_section after fit().
  Expected predict_crc;        ///< predict_batch(train) output doubles.
  QueryPrecision query = QueryPrecision::kReal;
  ModelPrecision model = ModelPrecision::kReal;
  UpdateRule rule = UpdateRule::kConfidenceWeighted;
  std::size_t models = 4;
};

// Batch sizes straddle 8, the old minimum for batch phase 1's bank path.
const FitCase kFitCases[] = {
    {ClusterMode::kFullPrecision, 0, {2893207017u, 317033934u, 4083708909u},
     {1863455974u, 772722310u, 2688283930u}},
    {ClusterMode::kFullPrecision, 1, {2893207017u, 317033934u, 4083708909u},
     {1863455974u, 772722310u, 2688283930u}},
    {ClusterMode::kFullPrecision, 7, {622966858u, 1390579351u, 145553470u},
     {2918542937u, 530486401u, 1932594624u}},
    {ClusterMode::kFullPrecision, 8, {202079508u, 745923545u, 3481492170u},
     {3286932952u, 3755157777u, 4166352010u}},
    {ClusterMode::kFullPrecision, 16, {3023949274u, 592748751u, 2615719574u},
     {3640300343u, 1924921806u, 1486218190u}},
    {ClusterMode::kQuantized, 0, {2934002748u, 2722635634u, 1096616416u},
     {3469571956u, 2616684027u, 2080116520u}},
    {ClusterMode::kQuantized, 1, {2934002748u, 2722635634u, 1096616416u},
     {3469571956u, 2616684027u, 2080116520u}},
    {ClusterMode::kQuantized, 7, {2300422594u, 4113392220u, 1626525639u},
     {2026272324u, 3937694953u, 2055330171u}},
    {ClusterMode::kQuantized, 8, {123998529u, 2353836984u, 3112680092u},
     {1628388412u, 2628601424u, 2933023640u}},
    {ClusterMode::kQuantized, 16, {2313842304u, 2449411393u, 2115990145u},
     {2137900759u, 266740768u, 1911361001u}},
    {ClusterMode::kNaiveBinary, 0, {4246387545u, 1033917081u, 3964839426u},
     {4102176621u, 931243734u, 985015543u}},
    {ClusterMode::kNaiveBinary, 1, {4246387545u, 1033917081u, 3964839426u},
     {4102176621u, 931243734u, 985015543u}},
    {ClusterMode::kNaiveBinary, 7, {2773589662u, 1404323632u, 2129566907u},
     {3685859331u, 661104046u, 1176212033u}},
    {ClusterMode::kNaiveBinary, 8, {4269420272u, 393680072u, 669695062u},
     {861253153u, 424866909u, 3244069535u}},
    {ClusterMode::kNaiveBinary, 16, {3685329742u, 4019505386u, 1793438712u},
     {3370819236u, 859825467u, 1438094113u}},
    // Every cluster × query × model × update-rule mode at an odd k (dot_rows
    // scores row pairs, so 2k = 6 rows and the k = 3 cluster half leave an
    // unpaired row), through both train_step (0) and train_batch (5).
    {ClusterMode::kFullPrecision, 0,
     {2148238083u, 1071646539u, 3280414975u}, {840798833u, 1402351513u, 2425357212u},
     QueryPrecision::kReal, ModelPrecision::kReal, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kFullPrecision, 5,
     {1055474752u, 793302965u, 1655077799u}, {1467488917u, 2201591242u, 2218812494u},
     QueryPrecision::kReal, ModelPrecision::kReal, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kFullPrecision, 0,
     {3702701892u, 3412323519u, 94642305u}, {3618070857u, 9751026u, 1299665885u},
     QueryPrecision::kReal, ModelPrecision::kReal, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kFullPrecision, 5,
     {1297067919u, 2587855394u, 355518759u}, {1989858062u, 3417107976u, 3385843166u},
     QueryPrecision::kReal, ModelPrecision::kReal, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kFullPrecision, 0,
     {2148238083u, 1071646539u, 3280414975u}, {2488854218u, 3051663797u, 3390400797u},
     QueryPrecision::kReal, ModelPrecision::kBinary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kFullPrecision, 5,
     {3411890308u, 1647640081u, 2768277194u}, {3981267721u, 3761277417u, 3171079737u},
     QueryPrecision::kReal, ModelPrecision::kBinary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kFullPrecision, 0,
     {3103418933u, 3990556809u, 274511169u}, {3458716189u, 3151295683u, 2019707594u},
     QueryPrecision::kReal, ModelPrecision::kBinary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kFullPrecision, 5,
     {3920763389u, 4211514578u, 4109835155u}, {3549227804u, 1000342191u, 59298487u},
     QueryPrecision::kReal, ModelPrecision::kBinary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kFullPrecision, 0,
     {2148238083u, 1071646539u, 3280414975u}, {4095448543u, 1804382713u, 1218830570u},
     QueryPrecision::kReal, ModelPrecision::kTernary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kFullPrecision, 5,
     {1055474752u, 793302965u, 1655077799u}, {961039122u, 3902346996u, 336727179u},
     QueryPrecision::kReal, ModelPrecision::kTernary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kFullPrecision, 0,
     {3702701892u, 3412323519u, 94642305u}, {2554914737u, 2575584351u, 2154861176u},
     QueryPrecision::kReal, ModelPrecision::kTernary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kFullPrecision, 5,
     {1297067919u, 2587855394u, 355518759u}, {402793145u, 672898573u, 1956297449u},
     QueryPrecision::kReal, ModelPrecision::kTernary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kFullPrecision, 0,
     {3977973922u, 2124357770u, 1166120366u}, {3147252442u, 2339660693u, 2586731703u},
     QueryPrecision::kBinary, ModelPrecision::kReal, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kFullPrecision, 5,
     {2476429844u, 2260177081u, 2634311338u}, {845303289u, 63559713u, 2024430959u},
     QueryPrecision::kBinary, ModelPrecision::kReal, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kFullPrecision, 0,
     {3368322423u, 2231045674u, 3051995124u}, {2400531531u, 1490041240u, 818600576u},
     QueryPrecision::kBinary, ModelPrecision::kReal, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kFullPrecision, 5,
     {2082440973u, 2501196293u, 1875708482u}, {3245351394u, 3496641564u, 3814946678u},
     QueryPrecision::kBinary, ModelPrecision::kReal, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kFullPrecision, 0,
     {3977973922u, 2124357770u, 1166120366u}, {3284995835u, 675243474u, 333394723u},
     QueryPrecision::kBinary, ModelPrecision::kBinary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kFullPrecision, 5,
     {2476429844u, 2260177081u, 2634311338u}, {833197850u, 3248008476u, 2467195987u},
     QueryPrecision::kBinary, ModelPrecision::kBinary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kFullPrecision, 0,
     {3368322423u, 2231045674u, 3051995124u}, {3398313836u, 3254542625u, 944427063u},
     QueryPrecision::kBinary, ModelPrecision::kBinary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kFullPrecision, 5,
     {2082440973u, 2501196293u, 1875708482u}, {753541245u, 3630009616u, 2748352305u},
     QueryPrecision::kBinary, ModelPrecision::kBinary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kFullPrecision, 0,
     {3977973922u, 2124357770u, 1166120366u}, {3589686962u, 2007590901u, 202108054u},
     QueryPrecision::kBinary, ModelPrecision::kTernary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kFullPrecision, 5,
     {2476429844u, 2260177081u, 2634311338u}, {1640807338u, 3828555115u, 2078509657u},
     QueryPrecision::kBinary, ModelPrecision::kTernary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kFullPrecision, 0,
     {3368322423u, 2231045674u, 3051995124u}, {3978992271u, 4132137075u, 3509915047u},
     QueryPrecision::kBinary, ModelPrecision::kTernary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kFullPrecision, 5,
     {2082440973u, 2501196293u, 1875708482u}, {967150052u, 4065907152u, 1094054743u},
     QueryPrecision::kBinary, ModelPrecision::kTernary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kQuantized, 0,
     {321782183u, 1451494467u, 2047974774u}, {1927687505u, 584631176u, 911284870u},
     QueryPrecision::kReal, ModelPrecision::kReal, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kQuantized, 5,
     {516516224u, 3480372128u, 2109372181u}, {595703180u, 2292326955u, 23828533u},
     QueryPrecision::kReal, ModelPrecision::kReal, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kQuantized, 0,
     {509049497u, 1195817392u, 309357468u}, {1735727751u, 3334058817u, 1591493956u},
     QueryPrecision::kReal, ModelPrecision::kReal, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kQuantized, 5,
     {193449578u, 3534737100u, 507294187u}, {1785700471u, 548694308u, 2284929902u},
     QueryPrecision::kReal, ModelPrecision::kReal, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kQuantized, 0,
     {321782183u, 1451494467u, 2047974774u}, {2449846327u, 3113890105u, 628904692u},
     QueryPrecision::kReal, ModelPrecision::kBinary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kQuantized, 5,
     {516516224u, 3480372128u, 2109372181u}, {2852763342u, 2769210749u, 2094873884u},
     QueryPrecision::kReal, ModelPrecision::kBinary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kQuantized, 0,
     {509049497u, 1195817392u, 309357468u}, {2996097454u, 839205696u, 2852383505u},
     QueryPrecision::kReal, ModelPrecision::kBinary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kQuantized, 5,
     {193449578u, 3534737100u, 507294187u}, {3704013371u, 3191076550u, 3797022529u},
     QueryPrecision::kReal, ModelPrecision::kBinary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kQuantized, 0,
     {321782183u, 1451494467u, 2047974774u}, {3179972979u, 2823308012u, 583495065u},
     QueryPrecision::kReal, ModelPrecision::kTernary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kQuantized, 5,
     {516516224u, 3480372128u, 2109372181u}, {1990193431u, 280457064u, 422301015u},
     QueryPrecision::kReal, ModelPrecision::kTernary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kQuantized, 0,
     {509049497u, 1195817392u, 309357468u}, {3554243789u, 3595911029u, 3712105945u},
     QueryPrecision::kReal, ModelPrecision::kTernary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kQuantized, 5,
     {193449578u, 3534737100u, 507294187u}, {4076042116u, 4076042116u, 2040136961u},
     QueryPrecision::kReal, ModelPrecision::kTernary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kQuantized, 0,
     {3731047488u, 3731047488u, 2935756609u}, {2372401869u, 2372401869u, 1529899316u},
     QueryPrecision::kBinary, ModelPrecision::kReal, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kQuantized, 5,
     {2453698000u, 2453698000u, 3790649697u}, {2652029018u, 2652029018u, 125928604u},
     QueryPrecision::kBinary, ModelPrecision::kReal, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kQuantized, 0,
     {2836833366u, 2836833366u, 3089702899u}, {491473688u, 491473688u, 2682037843u},
     QueryPrecision::kBinary, ModelPrecision::kReal, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kQuantized, 5,
     {1613584641u, 1613584641u, 4226639960u}, {1618292989u, 1618292989u, 289277146u},
     QueryPrecision::kBinary, ModelPrecision::kReal, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kQuantized, 0,
     {3731047488u, 3731047488u, 2935756609u}, {2632973860u, 2632973860u, 3729615126u},
     QueryPrecision::kBinary, ModelPrecision::kBinary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kQuantized, 5,
     {2453698000u, 2453698000u, 3790649697u}, {3758257065u, 3758257065u, 2688063748u},
     QueryPrecision::kBinary, ModelPrecision::kBinary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kQuantized, 0,
     {2836833366u, 2836833366u, 3089702899u}, {2215154872u, 2215154872u, 1546289339u},
     QueryPrecision::kBinary, ModelPrecision::kBinary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kQuantized, 5,
     {1613584641u, 1613584641u, 4226639960u}, {3883331735u, 3883331735u, 1129461100u},
     QueryPrecision::kBinary, ModelPrecision::kBinary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kQuantized, 0,
     {3731047488u, 3731047488u, 2935756609u}, {4088873104u, 4088873104u, 1117842906u},
     QueryPrecision::kBinary, ModelPrecision::kTernary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kQuantized, 5,
     {2453698000u, 2453698000u, 3790649697u}, {985583399u, 985583399u, 1763406282u},
     QueryPrecision::kBinary, ModelPrecision::kTernary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kQuantized, 0,
     {2836833366u, 2836833366u, 3089702899u}, {4196979015u, 4196979015u, 4196979015u},
     QueryPrecision::kBinary, ModelPrecision::kTernary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kQuantized, 5,
     {1613584641u, 1613584641u, 4226639960u}, {459596532u, 459596532u, 3509530150u},
     QueryPrecision::kBinary, ModelPrecision::kTernary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kNaiveBinary, 0,
     {2686572125u, 3117948113u, 1250538974u}, {3328926070u, 1046377824u, 2650567406u},
     QueryPrecision::kReal, ModelPrecision::kReal, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kNaiveBinary, 5,
     {1416858659u, 1533202136u, 173777476u}, {873206907u, 749384417u, 1932922339u},
     QueryPrecision::kReal, ModelPrecision::kReal, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kNaiveBinary, 0,
     {3853435173u, 649069566u, 1855330907u}, {4131039568u, 2218433066u, 581019420u},
     QueryPrecision::kReal, ModelPrecision::kReal, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kNaiveBinary, 5,
     {2179037137u, 3502369995u, 3204037152u}, {2344043162u, 1048841745u, 4221697753u},
     QueryPrecision::kReal, ModelPrecision::kReal, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kNaiveBinary, 0,
     {2686572125u, 3117948113u, 1250538974u}, {928304524u, 3920622962u, 1957704112u},
     QueryPrecision::kReal, ModelPrecision::kBinary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kNaiveBinary, 5,
     {1416858659u, 1533202136u, 173777476u}, {336845874u, 874979848u, 825748178u},
     QueryPrecision::kReal, ModelPrecision::kBinary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kNaiveBinary, 0,
     {3853435173u, 649069566u, 1855330907u}, {2757865941u, 293973390u, 750553278u},
     QueryPrecision::kReal, ModelPrecision::kBinary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kNaiveBinary, 5,
     {2179037137u, 3502369995u, 3204037152u}, {3916092159u, 209062794u, 2894111712u},
     QueryPrecision::kReal, ModelPrecision::kBinary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kNaiveBinary, 0,
     {2686572125u, 3117948113u, 1250538974u}, {1637653894u, 274739805u, 640687617u},
     QueryPrecision::kReal, ModelPrecision::kTernary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kNaiveBinary, 5,
     {1416858659u, 1533202136u, 173777476u}, {2273530286u, 2236448522u, 217783296u},
     QueryPrecision::kReal, ModelPrecision::kTernary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kNaiveBinary, 0,
     {3853435173u, 649069566u, 1855330907u}, {3360603721u, 3529234328u, 2695436607u},
     QueryPrecision::kReal, ModelPrecision::kTernary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kNaiveBinary, 5,
     {2179037137u, 3502369995u, 3204037152u}, {2482706653u, 1476546736u, 191671427u},
     QueryPrecision::kReal, ModelPrecision::kTernary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kNaiveBinary, 0,
     {524147330u, 524147330u, 3344515524u}, {341133906u, 341133906u, 2699800869u},
     QueryPrecision::kBinary, ModelPrecision::kReal, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kNaiveBinary, 5,
     {3349465157u, 3349465157u, 1287000029u}, {238004934u, 238004934u, 1766275351u},
     QueryPrecision::kBinary, ModelPrecision::kReal, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kNaiveBinary, 0,
     {1744205613u, 1744205613u, 1556960957u}, {2427593476u, 2427593476u, 1023591745u},
     QueryPrecision::kBinary, ModelPrecision::kReal, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kNaiveBinary, 5,
     {1572180389u, 1572180389u, 1767642977u}, {921705178u, 921705178u, 1781616956u},
     QueryPrecision::kBinary, ModelPrecision::kReal, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kNaiveBinary, 0,
     {524147330u, 524147330u, 3344515524u}, {2887643725u, 2887643725u, 314330782u},
     QueryPrecision::kBinary, ModelPrecision::kBinary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kNaiveBinary, 5,
     {3349465157u, 3349465157u, 1287000029u}, {2242343188u, 2242343188u, 1086011772u},
     QueryPrecision::kBinary, ModelPrecision::kBinary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kNaiveBinary, 0,
     {1744205613u, 1744205613u, 1556960957u}, {3967070376u, 3967070376u, 795830437u},
     QueryPrecision::kBinary, ModelPrecision::kBinary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kNaiveBinary, 5,
     {1572180389u, 1572180389u, 1767642977u}, {1194092243u, 1194092243u, 1194092243u},
     QueryPrecision::kBinary, ModelPrecision::kBinary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kNaiveBinary, 0,
     {524147330u, 524147330u, 3344515524u}, {3587091985u, 3587091985u, 3263332718u},
     QueryPrecision::kBinary, ModelPrecision::kTernary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kNaiveBinary, 5,
     {3349465157u, 3349465157u, 1287000029u}, {3278880846u, 3278880846u, 3278880846u},
     QueryPrecision::kBinary, ModelPrecision::kTernary, UpdateRule::kConfidenceWeighted, 3},
    {ClusterMode::kNaiveBinary, 0,
     {1744205613u, 1744205613u, 1556960957u}, {3797544024u, 3797544024u, 3084008531u},
     QueryPrecision::kBinary, ModelPrecision::kTernary, UpdateRule::kWinnerOnly, 3},
    {ClusterMode::kNaiveBinary, 5,
     {1572180389u, 1572180389u, 1767642977u}, {3195853304u, 3195853304u, 2388929219u},
     QueryPrecision::kBinary, ModelPrecision::kTernary, UpdateRule::kWinnerOnly, 3},
};

TEST(ModelBytesTest, FitBytesMatchRecordedCrcs) {
  for (const FitCase& c : kFitCases) {
    std::uint32_t want = 0;
    if (!expected_for_backend(c.crc, want)) {
      GTEST_SKIP() << "no recorded CRCs for backend " << hdc::active_backend().name;
    }
    std::uint32_t want_predict = 0;
    (void)expected_for_backend(c.predict_crc, want_predict);
    RegHDConfig cfg = base_config();
    cfg.cluster_mode = c.mode;
    cfg.query_precision = c.query;
    cfg.model_precision = c.model;
    cfg.update_rule = c.rule;
    cfg.models = c.models;
    cfg.batch_size = c.batch_size;
    MultiModelRegressor model(cfg);
    (void)model.fit(data().train, data().val);
    const std::string what = "case " + std::to_string(&c - kFitCases) + ": " +
                             to_string(c.mode) + " " + cfg.prediction_mode().to_string() +
                             " " + to_string(c.rule) + " k " + std::to_string(c.models) +
                             " batch_size " + std::to_string(c.batch_size);
    EXPECT_EQ(model_crc(model), want) << what;
    EXPECT_EQ(doubles_crc(model.predict_batch(data().train)), want_predict) << what;
  }
}

TEST(ModelBytesTest, ShardedRefineBytesMatchRecordedCrc) {
  const Expected crc{426498015u, 2552003643u, 2711570237u};
  std::uint32_t want = 0;
  if (!expected_for_backend(crc, want)) {
    GTEST_SKIP() << "no recorded CRCs for backend " << hdc::active_backend().name;
  }
  ShardedTrainer trainer(base_config());
  ShardedTrainConfig sc;
  sc.shards = 4;
  sc.refine_epochs = 1;
  (void)trainer.fit(data().train, data().val, sc);
  EXPECT_EQ(model_crc(trainer.regressor()), want);
}

TEST(ModelBytesTest, TrainBatchRejectsOutOfRangeRowsBeforeAnyUpdate) {
  // A bad id anywhere in the list — even after valid ones — must throw
  // before phase 1 reads a row or phase 2 touches an accumulator.
  for (const ClusterMode mode : {ClusterMode::kFullPrecision, ClusterMode::kQuantized}) {
    RegHDConfig cfg = base_config();
    cfg.cluster_mode = mode;
    MultiModelRegressor model(cfg);
    (void)model.fit(data().train, data().val);
    const std::uint32_t before = model_crc(model);
    const std::size_t n = data().train.size();
    for (const std::size_t bad : {n, n + 1, std::size_t{1} << 40}) {
      const std::vector<std::size_t> idx = {0, 5, bad};
      std::vector<double> predictions(idx.size(), -1.0);
      EXPECT_THROW(model.train_batch(data().train, idx, predictions), std::invalid_argument)
          << to_string(mode) << " row " << bad;
      EXPECT_EQ(model_crc(model), before) << to_string(mode) << " row " << bad;
      EXPECT_EQ(predictions, std::vector<double>(idx.size(), -1.0));
    }
  }
}

TEST(ModelBytesTest, TrainEpochRejectsOutOfRangeRowsBeforeAnyUpdate) {
  // train_epoch is public and reads every listed row raw (the per-sample
  // path reads sample t + 1 while it applies sample t), so a bad id anywhere
  // in the order — even after valid ones — or data of the wrong dim must
  // throw before a single sample trains. An empty order stays a no-op.
  hdc::EncoderConfig narrow;
  narrow.input_dim = 5;
  narrow.dim = 128;
  const EncodedDataset wrong_dim =
      EncodedDataset::from(*hdc::make_encoder(narrow), make_dataset(8, 5, 0xD1), 1);
  for (const ClusterMode mode : {ClusterMode::kFullPrecision, ClusterMode::kQuantized}) {
    for (const std::size_t batch_size : {std::size_t{0}, std::size_t{2}}) {
      RegHDConfig cfg = base_config();
      cfg.cluster_mode = mode;
      cfg.batch_size = batch_size;
      MultiModelRegressor model(cfg);
      (void)model.fit(data().train, data().val);
      const std::uint32_t before = model_crc(model);
      const std::string what = to_string(mode) + " batch_size " + std::to_string(batch_size);
      const std::size_t n = data().train.size();
      for (const std::size_t bad : {n, n + 1, std::size_t{1} << 40}) {
        const std::vector<std::size_t> order = {0, 5, 7, 9, bad};
        EXPECT_THROW((void)model.train_epoch(data().train, order, 0), std::invalid_argument)
            << what << " row " << bad;
        EXPECT_EQ(model_crc(model), before) << what << " row " << bad;
      }
      const std::vector<std::size_t> first = {0, 1};
      EXPECT_THROW((void)model.train_epoch(wrong_dim, first, 0), std::invalid_argument)
          << what;
      EXPECT_EQ(model_crc(model), before) << what;
      EXPECT_EQ(model.train_epoch(data().train, {}, 0), 0.0) << what;
      EXPECT_EQ(model_crc(model), before) << what;
    }
  }
}

}  // namespace
}  // namespace reghd::core
