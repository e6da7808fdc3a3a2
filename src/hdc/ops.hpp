// Hypervector algebra: similarity metrics, accumulation, binding, bundling,
// and permutation.
//
// These free functions are the computational kernels of RegHD. The quantized
// fast paths (Hamming distance, sign-masked accumulation) are exact algebraic
// counterparts of the full-precision operations on bipolar data:
//
//   bipolar_dot(a, b)      = D − 2 · hamming_distance(a, b)
//   hamming_similarity     = bipolar_dot / D = cosine of the bipolar vectors
//   dot(real, binary)      = Σ_j ±real_j, the multiply-free dot of §3.2
//
// Dimension mismatches are precondition violations and throw.
#pragma once

#include <cstddef>
#include <vector>

#include "hdc/hypervector.hpp"

namespace reghd::hdc {

// ---------------------------------------------------------------------------
// Dot products
//
// Read-only operands are taken as views (RealHVView & friends); owning
// hypervectors convert implicitly, and the SoA encoded arena passes its flat
// planes through the same signatures without copies.
// ---------------------------------------------------------------------------

/// Full-precision dot product.
[[nodiscard]] double dot(RealHVView a, RealHVView b);

/// Multiply-free dot of a real vector with a packed binary vector under the
/// bipolar interpretation: Σ_j (bit_j ? +a_j : −a_j). This is the paper's
/// "binary query – integer model" / "integer query – binary model" kernel.
[[nodiscard]] double dot(RealHVView a, BinaryHVView b);

/// Bipolar dot of two packed vectors: D − 2·hamming. Integer-exact.
[[nodiscard]] std::int64_t bipolar_dot(BinaryHVView a, BinaryHVView b);

/// Masked signed accumulation: Σ over dims where mask is set of
/// (signs_j ? +a_j : −a_j). The ternary-model kernel for real queries.
[[nodiscard]] double masked_dot(RealHVView a, BinaryHVView signs, BinaryHVView mask);

// ---------------------------------------------------------------------------
// Distances and similarities
// ---------------------------------------------------------------------------

/// Number of differing components.
[[nodiscard]] std::size_t hamming_distance(BinaryHVView a, BinaryHVView b);

/// Hamming-based similarity in [−1, 1]: 1 − 2·hamming/D. Equals the cosine
/// similarity of the corresponding bipolar vectors (paper §3.1's efficient
/// similarity).
[[nodiscard]] double hamming_similarity(BinaryHVView a, BinaryHVView b);

/// Euclidean norm.
[[nodiscard]] double norm(RealHVView a);

/// Cosine similarity (Eq. 5). Returns 0 if either vector is all-zero.
[[nodiscard]] double cosine(RealHVView a, RealHVView b);

/// Cosine of a real vector against a packed ±1 vector (‖b‖ = √D).
[[nodiscard]] double cosine(RealHVView a, BinaryHVView b);

// ---------------------------------------------------------------------------
// Accumulation (model updates)
// ---------------------------------------------------------------------------

/// a += c · b for each of the sample representations. These implement the
/// paper's update rules (Eqs. 2, 7, 8, 9). `a` may be any accumulator row —
/// an owning RealHV or a row of a regressor's bank arena.
void add_scaled(std::span<double> a, RealHVView b, double c);
void add_scaled(std::span<double> a, BinaryHVView b, double c);
inline void add_scaled(RealHV& a, RealHVView b, double c) { add_scaled(a.values(), b, c); }
inline void add_scaled(RealHV& a, BinaryHVView b, double c) { add_scaled(a.values(), b, c); }

/// a *= c.
void scale(std::span<double> a, double c);
inline void scale(RealHV& a, double c) { scale(a.values(), c); }

// ---------------------------------------------------------------------------
// Classic HDC structure operations (used by the ID-level encoder and the
// Baseline-HD comparator)
// ---------------------------------------------------------------------------

/// XOR binding of packed vectors (bipolar component-wise multiplication).
[[nodiscard]] BinaryHV xor_bind(const BinaryHV& a, const BinaryHV& b);

/// In-place xor_bind into a caller-owned buffer (must already have the right
/// dimensionality) — the allocation-free form for per-feature encoder loops.
void xor_bind_into(BinaryHV& out, const BinaryHV& a, const BinaryHV& b);

/// Circular rotation by `shift` positions (ρ-permutation).
[[nodiscard]] BinaryHV permute(const BinaryHV& a, std::size_t shift);

/// In-place permute into a caller-owned buffer of the same dimensionality
/// (out must not alias a).
void permute_into(BinaryHV& out, const BinaryHV& a, std::size_t shift);

/// Majority bundling of an odd or even number of packed vectors; ties on an
/// even count break toward 1 deterministically.
[[nodiscard]] BinaryHV majority(const std::vector<BinaryHV>& vectors);

}  // namespace reghd::hdc
