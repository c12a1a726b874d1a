#include "pairing/precompute.h"

namespace seccloud::pairing {

FixedPairing::FixedPairing(const PairingGroup& group, const Point& fixed)
    : group_(&group), fixed_(fixed), lines_(group.fp(), fixed_, group.order()) {}

Fp2 FixedPairing::miller_with(const Point& q) const {
  group_->add_ops({.miller_loops = 1});
  return lines_.evaluate(group_->fp2(), q);
}

Gt FixedPairing::pair_with(const Point& q) const {
  if (fixed_.infinity || q.infinity) {
    group_->add_ops({.pairings = 1, .miller_loops = 1, .final_exps = 1});
    return group_->gt_one();
  }
  group_->add_ops({.pairings = 1});
  return group_->finalize(miller_with(q));
}

}  // namespace seccloud::pairing
