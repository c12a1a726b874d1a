#include "field/fp2.h"

#include <stdexcept>

namespace seccloud::field {

Fp2Field::Fp2Field(const PrimeField& base) : fp_(&base) {
  if (!base.is_three_mod_four()) {
    throw std::invalid_argument("Fp2Field: requires p ≡ 3 (mod 4) so that i^2 = -1 is irreducible");
  }
}

Fp2 Fp2Field::add(const Fp2& x, const Fp2& y) const {
  return {fp_->add(x.a, y.a), fp_->add(x.b, y.b)};
}

Fp2 Fp2Field::sub(const Fp2& x, const Fp2& y) const {
  return {fp_->sub(x.a, y.a), fp_->sub(x.b, y.b)};
}

Fp2 Fp2Field::neg(const Fp2& x) const { return {fp_->neg(x.a), fp_->neg(x.b)}; }

// fe2_mul/fe2_sqr are built from mont_mul, so on canonical (not Montgomery)
// operands they return the canonical result times R⁻¹; one more to_mont (·R)
// per component repairs it — no domain conversions on the way in.
Fp2 Fp2Field::mul(const Fp2& x, const Fp2& y) const {
  return rescale(fe2_mul(load(x), load(y)));
}

Fp2 Fp2Field::sqr(const Fp2& x) const { return rescale(fe2_sqr(load(x))); }

Fp2 Fp2Field::conj(const Fp2& x) const { return {x.a, fp_->neg(x.b)}; }

std::optional<Fp2> Fp2Field::inv(const Fp2& x) const {
  if (is_zero(x)) return std::nullopt;
  const BigUint norm = fp_->add(fp_->sqr(x.a), fp_->sqr(x.b));
  const auto norm_inv = fp_->inv(norm);
  if (!norm_inv) return std::nullopt;  // Unreachable for prime p, x != 0.
  return Fp2{fp_->mul(x.a, *norm_inv), fp_->mul(fp_->neg(x.b), *norm_inv)};
}

Fp2 Fp2Field::pow(const Fp2& x, const BigUint& e) const {
  // Square-and-multiply on Montgomery-domain stack limbs: two conversions
  // total.
  const Fe2 base = fe2_import(x);
  Fe2 result = fe2_one();
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    result = fe2_sqr(result);
    if (e.bit(i)) result = fe2_mul(result, base);
  }
  return fe2_export(result);
}

Fe2 Fp2Field::load(const Fp2& x) const { return {fp_->to_fe(x.a), fp_->to_fe(x.b)}; }

Fp2 Fp2Field::rescale(const Fe2& x) const {
  const auto& m = fp_->mont();
  return {m.to_biguint(m.to_mont(x.a)), m.to_biguint(m.to_mont(x.b))};
}

Fe2 Fp2Field::fe2_import(const Fp2& x) const {
  const auto& m = fp_->mont();
  return {m.to_mont(fp_->to_fe(x.a)), m.to_mont(fp_->to_fe(x.b))};
}

Fp2 Fp2Field::fe2_export(const Fe2& x) const {
  const auto& m = fp_->mont();
  return {m.to_biguint(m.from_mont(x.a)), m.to_biguint(m.from_mont(x.b))};
}

Fe2 Fp2Field::fe2_one() const {
  return {fp_->mont().one_mont(), fixed::Fe{}};
}

Fe2 Fp2Field::fe2_mul(const Fe2& x, const Fe2& y) const {
  // Karatsuba: t0 = x.a y.a, t1 = x.b y.b, t2 = (x.a+x.b)(y.a+y.b).
  const auto& m = fp_->mont();
  const fixed::Fe t0 = m.mont_mul(x.a, y.a);
  const fixed::Fe t1 = m.mont_mul(x.b, y.b);
  const fixed::Fe t2 = m.mont_mul(m.add(x.a, x.b), m.add(y.a, y.b));
  return {m.sub(t0, t1), m.sub(t2, m.add(t0, t1))};
}

Fe2 Fp2Field::fe2_sqr(const Fe2& x) const {
  const auto& m = fp_->mont();
  const fixed::Fe sum = m.add(x.a, x.b);
  const fixed::Fe diff = m.sub(x.a, x.b);
  const fixed::Fe cross = m.mont_mul(x.a, x.b);
  return {m.mont_mul(sum, diff), m.add(cross, cross)};
}

Fp2 Fp2Field::random(num::RandomSource& rng) const {
  return {fp_->random(rng), fp_->random(rng)};
}

std::string Fp2Field::to_string(const Fp2& x) const {
  return x.a.to_hex() + "+" + x.b.to_hex() + "*i";
}

}  // namespace seccloud::field
