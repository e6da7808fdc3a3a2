// Random hypervector generation.
//
// Random bipolar hypervectors of dimension D ≈ 10k are near-orthogonal with
// overwhelming probability (their cosine similarity concentrates as
// N(0, 1/√D)); this quasi-orthogonality is the foundation of both the
// encoder's base vectors (Eq. 1) and the random cluster initialization
// (§2.4). All draws are deterministic given the Rng state.
#pragma once

#include <cstddef>
#include <vector>

#include "hdc/hypervector.hpp"
#include "util/random.hpp"

namespace reghd::hdc {

/// Random ±1 hypervector, packed: one Rademacher draw per component (bit
/// set ⇔ +1), so it consumes `dim` engine words in component order.
[[nodiscard]] BinaryHV random_bipolar(std::size_t dim, util::Rng& rng);

/// Random packed binary hypervector (i.i.d. fair bits, 64 per engine word).
[[nodiscard]] BinaryHV random_binary(std::size_t dim, util::Rng& rng);

/// Random real hypervector with i.i.d. N(mean, stddev²) components.
[[nodiscard]] RealHV random_gaussian(std::size_t dim, util::Rng& rng, double mean = 0.0,
                                     double stddev = 1.0);

/// A set of mutually independent random bipolar base hypervectors, one per
/// input feature (the B_k of Eq. 1): random_bipolar() `count` times.
[[nodiscard]] std::vector<BinaryHV> random_bipolar_set(std::size_t count, std::size_t dim,
                                                       util::Rng& rng);

/// Flips each component of a packed vector independently with probability p.
/// Used by the robustness tests and the noise-injection experiments.
[[nodiscard]] BinaryHV flip_noise(const BinaryHV& v, double p, util::Rng& rng);

/// Adds i.i.d. N(0, stddev²) noise to each component of a real vector.
[[nodiscard]] RealHV gaussian_noise(const RealHV& v, double stddev, util::Rng& rng);

}  // namespace reghd::hdc
