#include "pairing/miller.h"

#include "ec/jacobian.h"

namespace seccloud::pairing {

using field::fixed::Fe;
using field::fixed::MontCtx;

/// f at φ(Q), squared once per loop step and multiplied by each line the
/// step forms.
class MillerLines::Accumulator {
 public:
  Accumulator(const field::Fp2Field& f2, const ec::Point& q)
      : f2_(f2), m_(f2.base().mont()), acc_(f2.fe2_one()) {
    const ec::fe::Affine at = ec::fe::import(f2.base(), q);
    xq_ = m_.neg(at.x);  // x̄_Q
    yq_ = at.y;
  }
  void step(const Line* lines, std::size_t count) {
    acc_ = f2_.fe2_sqr(acc_);
    for (std::size_t k = 0; k < count; ++k) {
      const Line& line = lines[k];
      acc_ = f2_.fe2_mul(acc_, {m_.neg(m_.add(line.u, m_.mont_mul(line.v, xq_))),
                                m_.mont_mul(line.w, yq_)});
    }
  }
  field::Fp2 value() const { return f2_.fe2_export(acc_); }

 private:
  const field::Fp2Field& f2_;
  const MontCtx& m_;
  field::Fe2 acc_;
  Fe xq_;
  Fe yq_;
};

template <class OnStep>
void MillerLines::walk(const field::PrimeField& fp, const ec::Point& p, const num::BigUint& n,
                       OnStep&& on_step) {
  const MontCtx& m = fp.mont();
  const Fe& a = m.one_mont();  // y² = x³ + x
  const ec::fe::Affine base = ec::fe::import(fp, p);
  const auto tangent = [&m](const ec::fe::Jacobian& t, const ec::fe::DblTerms& d,
                            const Fe& z3) {
    return Line{m.sub(m.add(d.y2, d.y2), m.mont_mul(d.m, t.x)), m.mont_mul(d.m, d.z2),
                m.mont_mul(z3, d.z2)};
  };
  ec::fe::Jacobian t{base.x, base.y, m.one_mont()};
  for (std::size_t i = n.bit_length() - 1; i-- > 0;) {
    Line lines[2];
    std::size_t count = 0;
    if (!m.is_zero(t.z)) {
      ec::fe::DblTerms d;
      const ec::fe::Jacobian t2 = ec::fe::dbl(m, a, t, &d);
      if (!m.is_zero(t2.z)) lines[count++] = tangent(t, d, t2.z);
      t = t2;
    }
    if (n.bit(i)) {
      if (m.is_zero(t.z)) {
        t = {base.x, base.y, m.one_mont()};  // O + P = P: no line
      } else {
        ec::fe::AddTerms at;
        const ec::fe::Jacobian sum = ec::fe::add_mixed(m, a, t, base, &at);
        if (!m.is_zero(sum.z)) {
          lines[count++] = at.doubled ? tangent(t, at.dbl, sum.z)
                                      : Line{m.sub(m.mont_mul(sum.z, base.y),
                                                   m.mont_mul(at.r, base.x)),
                                             at.r, sum.z};
        }
        t = sum;
      }
    }
    on_step(lines, count);
  }
}

MillerLines::MillerLines(const field::PrimeField& fp, const ec::Point& p,
                         const num::BigUint& n) {
  if (p.infinity) return;
  per_step_.reserve(n.bit_length() - 1);
  walk(fp, p, n, [this](const Line* lines, std::size_t count) {
    per_step_.push_back(static_cast<std::uint8_t>(count));
    lines_.insert(lines_.end(), lines, lines + count);
  });
}

field::Fp2 MillerLines::evaluate(const field::Fp2Field& f2, const ec::Point& q) const {
  Accumulator acc(f2, q);
  const Line* next = lines_.data();
  for (const std::uint8_t count : per_step_) {
    acc.step(next, count);
    next += count;
  }
  return acc.value();
}

field::Fp2 MillerLines::evaluate_once(const field::Fp2Field& f2, const ec::Point& p,
                                      const ec::Point& q, const num::BigUint& n) {
  Accumulator acc(f2, q);
  walk(f2.base(), p, n, [&acc](const Line* lines, std::size_t count) { acc.step(lines, count); });
  return acc.value();
}

}  // namespace seccloud::pairing
