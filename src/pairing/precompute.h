// Fixed-argument pairing precomputation.
//
// The designated-verifier checks (Eq. 5/7/8/9) all evaluate ê(·, sk_B) with
// the *same* verifier secret key: the Miller loop's point arithmetic depends
// only on one argument, so the sequence of line functions through sk_B can
// be computed once and replayed against each new evaluation point. Because
// the modified Tate pairing on this supersingular curve is symmetric
// (ê(P, Q) = ê(Q, P)), fixing the second argument of pair(target, sk_B) is
// the same as fixing the first of pair(sk_B, target) — which is what this
// class stores. Replaying a precomputed loop skips every Jacobian doubling/
// addition and keeps only the two line-evaluation multiplications per step.
//
// pair_with(Q) is bit-identical to group.pair(fixed, Q) (and, by symmetry,
// to group.pair(Q, fixed)): both evaluate the same recorded lines
// (pairing/miller.h).
#pragma once

#include "pairing/group.h"
#include "pairing/miller.h"

namespace seccloud::pairing {

class FixedPairing {
 public:
  /// Precomputes the Miller line coefficients for ê(fixed, ·). Costs about
  /// one Miller loop of point arithmetic; pays for itself from the second
  /// pairing onward.
  FixedPairing(const PairingGroup& group, const Point& fixed);

  const PairingGroup& group() const noexcept { return *group_; }
  const Point& fixed() const noexcept { return fixed_; }

  /// ê(fixed, q). Counter semantics match PairingGroup::pair (one pairing,
  /// one miller_loop, one final_exp).
  Gt pair_with(const Point& q) const;

  /// Miller loop only (for product accumulation with a shared final
  /// exponentiation). Counts one miller_loop. `q` must be finite.
  Fp2 miller_with(const Point& q) const;

 private:
  const PairingGroup* group_;
  Point fixed_;
  MillerLines lines_;
};

}  // namespace seccloud::pairing
