// Prime field F_p arithmetic.
//
// Context-object style: a PrimeField owns the modulus and its fixed-limb
// Montgomery context (field/fp_fixed.h); elements of the public API are
// plain BigUint residues in [0, p). mul/sqr/pow/inv/mul_small convert at the
// boundary and run on stack limbs; the hot consumers (ec::Curve, the Miller
// loop, FixedPairing) use mont() directly and stay on limbs end to end.
// Every modulus must fit the core (odd, 3 ≤ p < 2^512).
#pragma once

#include <optional>

#include "bigint/biguint.h"
#include "bigint/rng.h"
#include "field/fp_fixed.h"

namespace seccloud::field {

using num::BigUint;

class PrimeField {
 public:
  /// `p` must be an odd prime (not verified here; callers pass verified or
  /// pinned parameters). Throws std::invalid_argument if p < 3, even, or
  /// wider than fixed::kMaxLimbs limbs.
  explicit PrimeField(BigUint p);

  const BigUint& modulus() const noexcept { return mont_.modulus(); }

  /// The fixed-limb Montgomery context the hot loops run on.
  const fixed::MontCtx& mont() const noexcept { return mont_; }

  /// Canonical limbs of x mod p (x may be any non-negative integer).
  fixed::Fe to_fe(const BigUint& x) const {
    return x < modulus() ? mont_.load(x) : mont_.load(x % modulus());
  }

  /// Reduces an arbitrary non-negative integer into [0, p).
  BigUint reduce(const BigUint& x) const { return x < modulus() ? x : x % modulus(); }

  BigUint add(const BigUint& a, const BigUint& b) const;
  BigUint sub(const BigUint& a, const BigUint& b) const;
  BigUint neg(const BigUint& a) const;
  BigUint mul(const BigUint& a, const BigUint& b) const;
  BigUint sqr(const BigUint& a) const;
  BigUint mul_small(const BigUint& a, std::uint64_t k) const;

  /// a^e mod p.
  BigUint pow(const BigUint& a, const BigUint& e) const;

  /// Multiplicative inverse; std::nullopt for 0.
  std::optional<BigUint> inv(const BigUint& a) const;

  /// Square root of a quadratic residue; std::nullopt for non-residues.
  /// p ≡ 3 (mod 4) uses the a^((p+1)/4) shortcut; p ≡ 1 (mod 4) runs
  /// Tonelli–Shanks. Throws std::logic_error only if no quadratic
  /// non-residue could be found at construction (non-prime modulus).
  std::optional<BigUint> sqrt(const BigUint& a) const;

  /// Batch inversion (Montgomery's trick): inverts every element with ONE
  /// field inversion plus 3(n−1) multiplications. All inputs must be
  /// nonzero mod p; throws std::domain_error otherwise.
  std::vector<BigUint> inv_batch(std::span<const BigUint> values) const;

  /// Uniform element of [0, p).
  BigUint random(num::RandomSource& rng) const { return rng.next_below(modulus()); }

  bool is_three_mod_four() const noexcept { return (modulus().limb(0) & 3u) == 3u; }

 private:
  fixed::MontCtx mont_;
  BigUint sqrt_exponent_;  ///< (p+1)/4 when p ≡ 3 (mod 4).

  // Tonelli–Shanks precomputation (p ≡ 1 (mod 4) only): p − 1 = q·2^s and a
  // quadratic non-residue z. ts_ready_ is false when no non-residue was
  // found (non-prime modulus); sqrt then throws.
  BigUint ts_q_;
  std::size_t ts_s_ = 0;
  BigUint ts_z_;
  bool ts_ready_ = false;
};

}  // namespace seccloud::field
