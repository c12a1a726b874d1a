// Quadratic extension F_{p^2} = F_p[i] / (i^2 + 1), valid for p ≡ 3 (mod 4)
// (−1 is then a quadratic non-residue).  This is the target field of the
// modified Tate pairing: GT is the order-q subgroup of F_{p^2}^*.
#pragma once

#include <string>

#include "field/fp.h"

namespace seccloud::field {

/// Element a + b·i of F_{p^2}. Plain value type; all arithmetic goes through
/// the Fp2Field context.
struct Fp2 {
  BigUint a;  ///< real part
  BigUint b;  ///< imaginary part

  bool operator==(const Fp2&) const = default;
};

/// Fixed-limb F_{p^2} element for the Miller-loop hot path: both components
/// are Montgomery-domain fixed::Fe values.
struct Fe2 {
  fixed::Fe a;
  fixed::Fe b;

  bool operator==(const Fe2&) const = default;
};

class Fp2Field {
 public:
  /// `base` must outlive this object; requires p ≡ 3 (mod 4).
  explicit Fp2Field(const PrimeField& base);

  const PrimeField& base() const noexcept { return *fp_; }

  Fp2 zero() const { return {}; }
  Fp2 one() const { return {BigUint{1}, BigUint{}}; }
  Fp2 from_base(BigUint real) const { return {std::move(real), BigUint{}}; }

  bool is_zero(const Fp2& x) const noexcept { return x.a.is_zero() && x.b.is_zero(); }
  bool is_one(const Fp2& x) const noexcept { return x.a == BigUint{1} && x.b.is_zero(); }

  Fp2 add(const Fp2& x, const Fp2& y) const;
  Fp2 sub(const Fp2& x, const Fp2& y) const;
  Fp2 neg(const Fp2& x) const;
  /// Karatsuba: 3 base-field multiplications.
  Fp2 mul(const Fp2& x, const Fp2& y) const;
  /// (a+bi)^2 = (a+b)(a−b) + 2ab·i: 2 base-field multiplications.
  Fp2 sqr(const Fp2& x) const;
  /// Conjugate: a − b·i. This is the Frobenius x ↦ x^p in F_{p^2}.
  Fp2 conj(const Fp2& x) const;
  /// Inverse via the norm: (a+bi)^-1 = (a−bi)/(a²+b²). nullopt for 0.
  std::optional<Fp2> inv(const Fp2& x) const;
  Fp2 pow(const Fp2& x, const BigUint& e) const;

  /// Uniform random element.
  Fp2 random(num::RandomSource& rng) const;

  /// "a+b*i" textual form (for logging / golden tests).
  std::string to_string(const Fp2& x) const;

  // --- fixed-limb hot path ----------------------------------------------
  // Montgomery-domain stack limbs; mul/sqr/pow above are wrappers over these.
  Fp2 fe2_export(const Fe2& x) const;   ///< Montgomery Fe2 → canonical Fp2
  Fe2 fe2_one() const;
  Fe2 fe2_mul(const Fe2& x, const Fe2& y) const;  ///< Karatsuba, 3 mont_muls
  Fe2 fe2_sqr(const Fe2& x) const;                ///< 2 mont_muls

 private:
  Fe2 fe2_import(const Fp2& x) const;  ///< canonical Fp2 → Montgomery Fe2
  Fe2 load(const Fp2& x) const;       ///< canonical limbs, no domain change
  Fp2 rescale(const Fe2& x) const;    ///< limbs of x·R⁻¹ → canonical x
  const PrimeField* fp_;
};

}  // namespace seccloud::field
