// Miller's loop for the modified Tate pairing ê(P, Q) = e(P, φ(Q))^((p²−1)/q)
// on y² = x³ + x, split into its P-only and its Q-dependent halves.
//
// Walking T through the multiples of P (the ec/jacobian.h steps) yields at
// most two line functions per bit of the group order. Each is recorded
// independently of Q as coefficients (u, v, w):
//   l(φ(Q)) = −(u + v·x̄_Q) + (w·y_Q)·i,   φ(Q) = (−x_Q, i·y_Q), x̄_Q = −x_Q.
//   tangent at T = (X, Y, Z), 2T = (X3, Y3, Z3):
//     u = 2Y² − M·X,  v = M·Z²,  w = Z3·Z²      (M = 3X² + Z⁴)
//   chord through T and P, T + P = (X3, Y3, Z3):
//     u = Z3·y_P − R·x_P,  v = R,  w = Z3        (R = y_P·Z³ − Y)
// Vertical lines (2T = O, T + P = O) lie in the subfield F_p and are dropped:
// the final exponentiation (p²−1)/q annihilates F_p^* (denominator
// elimination). When T = P the chord degenerates to the tangent at T.
//
// PairingGroup::pair evaluates each line as the walk forms it; FixedPairing
// records the lines once per fixed argument and evaluates them for many Q.
#pragma once

#include <cstdint>
#include <vector>

#include "ec/curve.h"
#include "field/fp2.h"

namespace seccloud::pairing {

class MillerLines {
 public:
  /// Records the lines of Miller's loop for ê(p, ·) over the bits of the
  /// group order `n`. An infinite `p` records nothing (ê(O, ·) = 1).
  MillerLines(const field::PrimeField& fp, const ec::Point& p, const num::BigUint& n);

  /// The Miller value f(φ(q)): one squaring per loop step, one F_{p²}
  /// multiplication per recorded line. `q` must be finite.
  field::Fp2 evaluate(const field::Fp2Field& f2, const ec::Point& q) const;

  /// MillerLines(f2.base(), p, n).evaluate(f2, q), evaluating each line as
  /// the walk forms it instead of storing it (a one-off pairing need not pay
  /// for the line buffer). `p` and `q` must be finite.
  static field::Fp2 evaluate_once(const field::Fp2Field& f2, const ec::Point& p,
                                  const ec::Point& q, const num::BigUint& n);

 private:
  struct Line {
    field::fixed::Fe u;
    field::fixed::Fe v;
    field::fixed::Fe w;
  };
  class Accumulator;

  /// Walks the loop for ê(p, ·), calling on_step(lines, count) once per
  /// iteration with the 0..2 lines it forms.
  template <class OnStep>
  static void walk(const field::PrimeField& fp, const ec::Point& p, const num::BigUint& n,
                   OnStep&& on_step);

  std::vector<std::uint8_t> per_step_;  ///< 0..2 lines per loop iteration
  std::vector<Line> lines_;             ///< flat, in evaluation order
};

}  // namespace seccloud::pairing
