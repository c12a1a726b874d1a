#include "field/fp.h"

#include <stdexcept>

namespace seccloud::field {

PrimeField::PrimeField(BigUint p) : mont_(p) {
  if (is_three_mod_four()) {
    sqrt_exponent_ = (p + BigUint{1}) >> 2;
    return;
  }
  // Tonelli–Shanks setup: p − 1 = q·2^s with q odd, plus a quadratic
  // non-residue z found by Euler's criterion. For prime p half of all
  // candidates are non-residues, so the bounded search only fails for
  // non-prime moduli; sqrt() then reports the failure instead of looping.
  ts_q_ = p - BigUint{1};
  while (ts_q_.is_even()) {
    ts_q_ >>= 1;
    ++ts_s_;
  }
  const BigUint euler = (p - BigUint{1}) >> 1;
  const BigUint minus_one = p - BigUint{1};
  for (std::uint64_t z = 2; z < 1000; ++z) {
    if (pow(BigUint{z}, euler) == minus_one) {
      ts_z_ = BigUint{z};
      ts_ready_ = true;
      break;
    }
  }
}

BigUint PrimeField::add(const BigUint& a, const BigUint& b) const {
  BigUint r = a + b;
  if (r >= modulus()) r -= modulus();
  return r;
}

BigUint PrimeField::sub(const BigUint& a, const BigUint& b) const {
  if (a >= b) return a - b;
  return a + modulus() - b;
}

BigUint PrimeField::neg(const BigUint& a) const {
  if (a.is_zero()) return a;
  return modulus() - a;
}

BigUint PrimeField::mul(const BigUint& a, const BigUint& b) const {
  return mont_.to_biguint(mont_.mul_canonical(to_fe(a), to_fe(b)));
}

BigUint PrimeField::sqr(const BigUint& a) const {
  return mont_.to_biguint(mont_.sqr_canonical(to_fe(a)));
}

BigUint PrimeField::mul_small(const BigUint& a, std::uint64_t k) const {
  return mont_.to_biguint(mont_.mul_word(to_fe(a), k));
}

BigUint PrimeField::pow(const BigUint& a, const BigUint& e) const {
  // One conversion each way; the whole ladder runs in the Montgomery domain.
  const fixed::Fe base = mont_.to_mont(to_fe(a));
  return mont_.to_biguint(mont_.from_mont(mont_.pow_mont(base, e)));
}

std::optional<BigUint> PrimeField::inv(const BigUint& a) const {
  // nullopt for 0, and for any a sharing a factor with a composite modulus.
  const auto iv = mont_.inv_mont(mont_.to_mont(to_fe(a)));
  if (!iv) return std::nullopt;
  return mont_.to_biguint(mont_.from_mont(*iv));
}

std::vector<BigUint> PrimeField::inv_batch(std::span<const BigUint> values) const {
  std::vector<fixed::Fe> xs;
  xs.reserve(values.size());
  for (const BigUint& v : values) xs.push_back(mont_.to_mont(to_fe(v)));
  std::vector<BigUint> out;
  out.reserve(values.size());
  for (const fixed::Fe& x : mont_.inv_batch_mont(xs)) {
    out.push_back(mont_.to_biguint(mont_.from_mont(x)));
  }
  return out;
}

std::optional<BigUint> PrimeField::sqrt(const BigUint& a) const {
  const BigUint r = reduce(a);
  if (r.is_zero()) return BigUint{};

  if (is_three_mod_four()) {
    BigUint candidate = pow(r, sqrt_exponent_);
    if (sqr(candidate) != r) return std::nullopt;
    return candidate;
  }

  if (!ts_ready_) {
    throw std::logic_error(
        "PrimeField::sqrt: no quadratic non-residue found at construction "
        "(modulus is not prime)");
  }

  // Tonelli–Shanks. Invariants: t = r^q · (products of even powers of z),
  // res² = r·t, ord(t) divides 2^m.
  BigUint c = pow(ts_z_, ts_q_);
  BigUint t = pow(r, ts_q_);
  BigUint res = pow(r, (ts_q_ + BigUint{1}) >> 1);
  const BigUint one{1};
  std::size_t m_now = ts_s_;
  while (t != one) {
    // Least i with t^(2^i) = 1; i = m_now means r is a non-residue.
    std::size_t i = 0;
    BigUint probe = t;
    while (probe != one) {
      probe = sqr(probe);
      ++i;
      if (i >= m_now) return std::nullopt;
    }
    BigUint b = c;
    for (std::size_t j = 0; j + i + 1 < m_now; ++j) b = sqr(b);
    m_now = i;
    c = sqr(b);
    t = mul(t, c);
    res = mul(res, b);
  }
  if (sqr(res) != r) return std::nullopt;  // belt and braces for odd moduli
  return res;
}

}  // namespace seccloud::field
