#include "ec/jacobian.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace seccloud::ec {
namespace fe {

Affine import(const PrimeField& fp, const Point& pt) {
  if (pt.infinity) return {Fe{}, Fe{}, true};
  const MontCtx& m = fp.mont();
  return {m.to_mont(fp.to_fe(pt.x)), m.to_mont(fp.to_fe(pt.y)), false};
}

Jacobian dbl(const MontCtx& m, const Fe& a, const Jacobian& t, DblTerms* terms) {
  if (m.is_zero(t.z) || m.is_zero(t.y)) return infinity(m);
  const Fe y2 = m.mont_sqr(t.y);
  const Fe s = m.mul_word(m.mont_mul(t.x, y2), 4);                // S = 4XY^2
  const Fe z2 = m.mont_sqr(t.z);
  const Fe z4 = m.mont_sqr(z2);
  // Both pinned curves are y^2 = x^3 + x, so a·Z^4 degenerates to Z^4;
  // an eight-limb compare is free next to the 8×8 multiply it avoids.
  const Fe az4 = (a == m.one_mont()) ? z4 : m.mont_mul(a, z4);
  const Fe mm = m.add(m.mul_word(m.mont_sqr(t.x), 3), az4);       // M = 3X^2 + aZ^4
  const Fe x3 = m.sub(m.mont_sqr(mm), m.add(s, s));
  const Fe y3 = m.sub(m.mont_mul(mm, m.sub(s, x3)), m.mul_word(m.mont_sqr(y2), 8));
  const Fe z3 = m.mul_word(m.mont_mul(t.y, t.z), 2);
  if (terms != nullptr) *terms = {y2, mm, z2};
  return {x3, y3, z3};
}

Jacobian add_mixed(const MontCtx& m, const Fe& a, const Jacobian& t, const Affine& p,
                   AddTerms* terms) {
  if (p.inf) return t;
  if (m.is_zero(t.z)) return {p.x, p.y, m.one_mont()};
  const Fe z1_sq = m.mont_sqr(t.z);
  const Fe u2 = m.mont_mul(p.x, z1_sq);
  const Fe s2 = m.mont_mul(p.y, m.mont_mul(z1_sq, t.z));
  const Fe h = m.sub(u2, t.x);
  const Fe r = m.sub(s2, t.y);
  if (m.is_zero(h)) {
    if (!m.is_zero(r)) return infinity(m);  // T = −P ⇒ T + P = O
    if (terms != nullptr) terms->doubled = true;
    return dbl(m, a, t, terms != nullptr ? &terms->dbl : nullptr);
  }
  const Fe h2 = m.mont_sqr(h);
  const Fe h3 = m.mont_mul(h2, h);
  const Fe x1h2 = m.mont_mul(t.x, h2);
  const Fe x3 = m.sub(m.sub(m.mont_sqr(r), h3), m.add(x1h2, x1h2));
  const Fe y3 = m.sub(m.mont_mul(r, m.sub(x1h2, x3)), m.mont_mul(t.y, h3));
  const Fe z3 = m.mont_mul(t.z, h);
  if (terms != nullptr) terms->r = r;
  return {x3, y3, z3};
}


}  // namespace fe

namespace {

using fe::Affine;
using fe::Jacobian;
using field::fixed::Fe;
using field::fixed::MontCtx;

Point to_point(const MontCtx& m, const Affine& pt) {
  if (pt.inf) return Point::at_infinity();
  return Point::affine(m.to_biguint(m.from_mont(pt.x)), m.to_biguint(m.from_mont(pt.y)));
}

Affine to_affine(const MontCtx& m, const Jacobian& t) {
  if (m.is_zero(t.z)) return {Fe{}, Fe{}, true};
  const auto z_inv = m.inv_mont(t.z);
  if (!z_inv) throw std::domain_error("to_affine: non-invertible z");
  const Fe z2_inv = m.mont_sqr(*z_inv);
  return {m.mont_mul(t.x, z2_inv), m.mont_mul(t.y, m.mont_mul(z2_inv, *z_inv)), false};
}

/// Converts finite Jacobian points to affine with one shared inversion.
std::vector<Affine> to_affine_batch(const MontCtx& m, std::span<const Jacobian> points) {
  std::vector<Fe> zs;
  zs.reserve(points.size());
  for (const auto& pt : points) {
    if (m.is_zero(pt.z)) throw std::domain_error("to_affine_batch: point at infinity");
    zs.push_back(pt.z);
  }
  const std::vector<Fe> z_invs = m.inv_batch_mont(zs);
  std::vector<Affine> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Fe z2_inv = m.mont_sqr(z_invs[i]);
    out.push_back({m.mont_mul(points[i].x, z2_inv),
                   m.mont_mul(points[i].y, m.mont_mul(z2_inv, z_invs[i])), false});
  }
  return out;
}

/// Plain double-and-add over the bits of k.
Jacobian double_and_add(const MontCtx& m, const Fe& a, const BigUint& k, const Affine& p) {
  Jacobian acc = fe::infinity(m);
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = fe::dbl(m, a, acc);
    if (k.bit(i)) acc = fe::add_mixed(m, a, acc, p);
  }
  return acc;
}

// Width-4 signed-window recoding, least-significant digit first: each entry
// is odd in (−2^{w−1}, 2^{w−1}) or zero.
std::vector<int> wnaf4_digits(const BigUint& k) {
  constexpr int kWidth = 4;
  constexpr std::uint64_t kWindow = 1u << kWidth;     // 16
  constexpr std::uint64_t kHalfWindow = kWindow / 2;  // 8

  std::vector<int> digits;
  digits.reserve(k.bit_length() + 1);
  BigUint n = k;
  while (!n.is_zero()) {
    if (n.is_odd()) {
      const std::uint64_t mod = n.limb(0) & (kWindow - 1);
      int digit;
      if (mod >= kHalfWindow) {
        digit = static_cast<int>(mod) - static_cast<int>(kWindow);
        n += static_cast<std::uint64_t>(-digit);
      } else {
        digit = static_cast<int>(mod);
        n -= static_cast<std::uint64_t>(digit);
      }
      digits.push_back(digit);
    } else {
      digits.push_back(0);
    }
    n >>= 1;
  }
  return digits;
}

}  // namespace

Curve::Curve(const PrimeField& fld, BigUint a, BigUint b, BigUint order, BigUint cofactor)
    : field_(&fld),
      a_(std::move(a)),
      b_(std::move(b)),
      order_(std::move(order)),
      cofactor_(std::move(cofactor)),
      a_mont_(fld.mont().to_mont(fld.to_fe(a_))) {}

bool Curve::is_on_curve(const Point& pt) const {
  if (pt.infinity) return true;
  const auto& f = *field_;
  const BigUint lhs = f.sqr(pt.y);
  const BigUint rhs = f.add(f.add(f.mul(f.sqr(pt.x), pt.x), f.mul(a_, pt.x)), b_);
  return lhs == rhs;
}

Point Curve::neg(const Point& pt) const {
  if (pt.infinity) return pt;
  return Point::affine(pt.x, field_->neg(pt.y));
}

Point Curve::add(const Point& lhs, const Point& rhs) const {
  if (lhs.infinity) return rhs;
  if (rhs.infinity) return lhs;
  const MontCtx& m = field_->mont();
  const Affine p = fe::import(*field_, lhs);
  const Jacobian sum = fe::add_mixed(m, a_mont_, {p.x, p.y, m.one_mont()},
                                     fe::import(*field_, rhs));
  return to_point(m, to_affine(m, sum));
}

Point Curve::dbl(const Point& pt) const {
  if (pt.infinity) return pt;
  const MontCtx& m = field_->mont();
  const Affine p = fe::import(*field_, pt);
  return to_point(m, to_affine(m, fe::dbl(m, a_mont_, {p.x, p.y, m.one_mont()})));
}

Point Curve::mul(const BigUint& k, const Point& pt) const {
  if (pt.infinity || k.is_zero()) return Point::at_infinity();
  const MontCtx& m = field_->mont();
  const Affine p = fe::import(*field_, pt);
  if (k.bit_length() <= 8) {
    // Tiny scalars: plain double-and-add beats table setup.
    return to_point(m, to_affine(m, double_and_add(m, a_mont_, k, p)));
  }

  const std::vector<int> digits = wnaf4_digits(k);
  // Odd multiples 3P, 5P, 7P as 2kP + P: doublings and mixed adds only, so
  // the affine 2P (a whole extra inversion, ~30 µs at 8 limbs) is never
  // needed; one shared inversion converts the table for mixed additions.
  const Jacobian t2 = fe::dbl(m, a_mont_, {p.x, p.y, m.one_mont()});
  std::array<Jacobian, 3> odd_jac{
      fe::add_mixed(m, a_mont_, t2, p),                          // 3P
      fe::add_mixed(m, a_mont_, fe::dbl(m, a_mont_, t2), p),     // 5P = 4P + P
      Jacobian{}};
  odd_jac[2] = fe::add_mixed(m, a_mont_, fe::dbl(m, a_mont_, odd_jac[0]), p);  // 7P
  // A base point of order 3, 5 or 7 collapses an odd multiple to O, which
  // the batch conversion cannot represent: fall back to plain
  // double-and-add, correct for every order.
  if (m.is_zero(odd_jac[0].z) || m.is_zero(odd_jac[1].z) || m.is_zero(odd_jac[2].z)) {
    return to_point(m, to_affine(m, double_and_add(m, a_mont_, k, p)));
  }
  const std::vector<Affine> odd = to_affine_batch(m, odd_jac);
  const std::array<Affine, 4> table{p, odd[0], odd[1], odd[2]};

  Jacobian acc = fe::infinity(m);
  for (std::size_t i = digits.size(); i-- > 0;) {
    acc = fe::dbl(m, a_mont_, acc);
    const int digit = digits[i];
    if (digit > 0) {
      acc = fe::add_mixed(m, a_mont_, acc, table[static_cast<std::size_t>(digit) / 2]);
    } else if (digit < 0) {
      Affine neg = table[static_cast<std::size_t>(-digit) / 2];
      neg.y = m.neg(neg.y);
      acc = fe::add_mixed(m, a_mont_, acc, neg);
    }
  }
  return to_point(m, to_affine(m, acc));
}

Point Curve::multi_mul(std::span<const BigUint> scalars, std::span<const Point> points) const {
  if (scalars.size() != points.size()) {
    throw std::invalid_argument("Curve::multi_mul: size mismatch");
  }
  const MontCtx& m = field_->mont();
  std::vector<Affine> pts;
  pts.reserve(points.size());
  for (const auto& pt : points) pts.push_back(fe::import(*field_, pt));

  // Interleaved double-and-add (shared doubling chain).
  std::size_t max_bits = 0;
  for (const auto& s : scalars) max_bits = std::max(max_bits, s.bit_length());
  Jacobian acc = fe::infinity(m);
  for (std::size_t i = max_bits; i-- > 0;) {
    acc = fe::dbl(m, a_mont_, acc);
    for (std::size_t j = 0; j < scalars.size(); ++j) {
      if (scalars[j].bit(i)) acc = fe::add_mixed(m, a_mont_, acc, pts[j]);
    }
  }
  return to_point(m, to_affine(m, acc));
}

std::optional<Point> Curve::lift_x(const BigUint& x, bool even_y) const {
  const auto& f = *field_;
  const BigUint xr = f.reduce(x);
  const BigUint rhs = f.add(f.add(f.mul(f.sqr(xr), xr), f.mul(a_, xr)), b_);
  const auto root = f.sqrt(rhs);
  if (!root) return std::nullopt;
  BigUint y = *root;
  if (y.is_odd() == even_y) y = f.neg(y);
  return Point::affine(xr, std::move(y));
}

std::vector<std::uint8_t> Curve::serialize(const Point& pt) const {
  if (pt.infinity) return {0x00};
  const std::size_t width = (field_->modulus().bit_length() + 7) / 8;
  std::vector<std::uint8_t> out;
  out.reserve(1 + 2 * width);
  out.push_back(0x04);
  const auto xb = pt.x.to_bytes(width);
  const auto yb = pt.y.to_bytes(width);
  out.insert(out.end(), xb.begin(), xb.end());
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

std::optional<Point> Curve::deserialize(std::span<const std::uint8_t> bytes) const {
  if (bytes.size() == 1 && bytes[0] == 0x00) return Point::at_infinity();
  const std::size_t width = (field_->modulus().bit_length() + 7) / 8;
  if (bytes.size() != 1 + 2 * width || bytes[0] != 0x04) return std::nullopt;
  Point pt = Point::affine(BigUint::from_bytes(bytes.subspan(1, width)),
                           BigUint::from_bytes(bytes.subspan(1 + width, width)));
  if (pt.x >= field_->modulus() || pt.y >= field_->modulus()) return std::nullopt;
  if (!is_on_curve(pt)) return std::nullopt;
  return pt;
}

std::vector<std::uint8_t> Curve::serialize_compressed(const Point& pt) const {
  if (pt.infinity) return {0x00};
  const std::size_t width = (field_->modulus().bit_length() + 7) / 8;
  std::vector<std::uint8_t> out;
  out.reserve(1 + width);
  out.push_back(pt.y.is_odd() ? 0x03 : 0x02);
  const auto xb = pt.x.to_bytes(width);
  out.insert(out.end(), xb.begin(), xb.end());
  return out;
}

std::optional<Point> Curve::deserialize_compressed(std::span<const std::uint8_t> bytes) const {
  if (bytes.size() == 1 && bytes[0] == 0x00) return Point::at_infinity();
  const std::size_t width = (field_->modulus().bit_length() + 7) / 8;
  if (bytes.size() != 1 + width || (bytes[0] != 0x02 && bytes[0] != 0x03)) {
    return std::nullopt;
  }
  const BigUint x = BigUint::from_bytes(bytes.subspan(1));
  if (x >= field_->modulus()) return std::nullopt;
  return lift_x(x, /*even_y=*/bytes[0] == 0x02);
}

Point Curve::random_point(num::RandomSource& rng) const {
  while (true) {
    const BigUint x = field_->random(rng);
    if (auto pt = lift_x(x, rng.next_u64() & 1)) return *pt;
  }
}

}  // namespace seccloud::ec
