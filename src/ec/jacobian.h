// Jacobian-coordinate point arithmetic on the fixed-limb Montgomery core:
// the one implementation of the doubling and mixed-addition formulas.
// ec::Curve builds scalar multiplication and affine add/dbl from them; the
// Miller loop (pairing/miller.cpp) walks the same steps and reads the
// intermediate terms (DblTerms, AddTerms) to form its line functions.
//
// Coordinates are Montgomery-domain fixed::Fe values of the curve's field.
#pragma once

#include "ec/curve.h"

namespace seccloud::ec::fe {

using field::fixed::Fe;
using field::fixed::MontCtx;

struct Affine {
  Fe x;
  Fe y;
  bool inf = false;
};

/// (X, Y, Z): x = X/Z², y = Y/Z³; Z = 0 ⇒ infinity.
struct Jacobian {
  Fe x;
  Fe y;
  Fe z;
};

/// Terms of a finite doubling of T = (X, Y, Z): Y², M = 3X² + aZ⁴ and Z².
struct DblTerms {
  Fe y2;
  Fe m;
  Fe z2;
};

/// Terms of a mixed addition T + P: R = Y_P·Z³ − Y. When T = P the step is
/// a doubling (`doubled`) and `dbl` holds its terms instead.
struct AddTerms {
  Fe r;
  bool doubled = false;
  DblTerms dbl;
};

inline Jacobian infinity(const MontCtx& m) { return {m.one_mont(), m.one_mont(), Fe{}}; }

/// Canonical affine point → Montgomery limbs (coordinates reduced mod p).
Affine import(const PrimeField& fp, const Point& pt);

/// 2T. `terms` (if given) is filled when the result is finite.
Jacobian dbl(const MontCtx& m, const Fe& a, const Jacobian& t, DblTerms* terms = nullptr);
/// T + P for affine P. `terms` (if given) is filled when T, P are finite and
/// the result is finite.
Jacobian add_mixed(const MontCtx& m, const Fe& a, const Jacobian& t, const Affine& p,
                   AddTerms* terms = nullptr);

}  // namespace seccloud::ec::fe
