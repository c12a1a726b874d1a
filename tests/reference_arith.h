// Reference arithmetic for the differential suite (fp_differential_test).
//
// A deliberately plain specification of what src/field, src/ec and
// src/pairing compute: F_p by BigUint `%`, F_{p²} by schoolbook products,
// curve points in affine coordinates with slope formulas and double-and-add,
// and the modified Tate pairing as an affine Miller loop with denominator
// elimination followed by a direct exponentiation to (p²−1)/q. Of the code
// under test it shares only the value types (ec::Point, Fp2); the arithmetic
// is BigUint and its extended-gcd inverse. Slow by design.
#pragma once

#include <optional>

#include "bigint/biguint.h"
#include "bigint/modular.h"
#include "ec/curve.h"
#include "field/fp2.h"

namespace seccloud::reference {

using ec::Point;
using field::Fp2;
using num::BigUint;

/// F_p with every result reduced by `%`.
struct Field {
  BigUint p;

  BigUint add(const BigUint& a, const BigUint& b) const { return (a + b) % p; }
  BigUint sub(const BigUint& a, const BigUint& b) const { return (a % p + p - b % p) % p; }
  BigUint neg(const BigUint& a) const { return (p - a % p) % p; }
  BigUint mul(const BigUint& a, const BigUint& b) const { return (a * b) % p; }

  BigUint pow(const BigUint& a, const BigUint& e) const {
    BigUint acc = BigUint{1} % p;
    for (std::size_t i = e.bit_length(); i-- > 0;) {
      acc = mul(acc, acc);
      if (e.bit(i)) acc = mul(acc, a);
    }
    return acc;
  }

  std::optional<BigUint> inv(const BigUint& a) const {
    if ((a % p).is_zero()) return std::nullopt;
    return num::inv_mod(a % p, p);
  }

  /// Euler's criterion: a is a nonzero square iff a^((p−1)/2) = 1.
  bool is_square(const BigUint& a) const {
    return (a % p).is_zero() || pow(a, (p - BigUint{1}) >> 1) == BigUint{1};
  }
};

/// F_{p²} = F_p[i]/(i² + 1), schoolbook products.
struct Field2 {
  Field f;

  Fp2 one() const { return {BigUint{1}, BigUint{}}; }
  Fp2 mul(const Fp2& x, const Fp2& y) const {
    return {f.sub(f.mul(x.a, y.a), f.mul(x.b, y.b)),
            f.add(f.mul(x.a, y.b), f.mul(x.b, y.a))};
  }
  Fp2 pow(const Fp2& x, const BigUint& e) const {
    Fp2 acc = one();
    for (std::size_t i = e.bit_length(); i-- > 0;) {
      acc = mul(acc, acc);
      if (e.bit(i)) acc = mul(acc, x);
    }
    return acc;
  }
};

/// y² = x³ + a·x + b in affine coordinates.
struct Curve {
  Field f;
  BigUint a;

  /// Slope of the line through finite l and r (the tangent when l = r);
  /// nullopt when that line is vertical.
  std::optional<BigUint> slope(const Point& l, const Point& r) const {
    if (l.x != r.x) return f.mul(f.sub(r.y, l.y), *f.inv(f.sub(r.x, l.x)));
    if (l.y != r.y || l.y.is_zero()) return std::nullopt;
    return f.mul(f.add(f.mul(BigUint{3}, f.mul(l.x, l.x)), a), *f.inv(f.add(l.y, l.y)));
  }

  Point add(const Point& l, const Point& r) const {
    if (l.infinity) return r;
    if (r.infinity) return l;
    const auto lambda = slope(l, r);
    if (!lambda) return Point::at_infinity();
    const BigUint x3 = f.sub(f.sub(f.mul(*lambda, *lambda), l.x), r.x);
    return Point::affine(x3, f.sub(f.mul(*lambda, f.sub(l.x, x3)), l.y));
  }

  Point dbl(const Point& pt) const { return add(pt, pt); }

  /// Double-and-add from the top bit.
  Point mul(const BigUint& k, const Point& pt) const {
    Point acc = Point::at_infinity();
    for (std::size_t i = k.bit_length(); i-- > 0;) {
      acc = dbl(acc);
      if (k.bit(i)) acc = add(acc, pt);
    }
    return acc;
  }
};

/// The modified Tate pairing ê(P, Q) = f_{n,P}(φ(Q))^((p²−1)/n) on
/// y² = x³ + x (c.a = 1), φ(x, y) = (−x, i·y), group order n.
struct Pairing {
  Curve c;
  BigUint n;

  Fp2 pair(const Point& p, const Point& q) const {
    if (p.infinity || q.infinity) return Field2{c.f}.one();
    const Field& f = c.f;
    const Field2 f2{f};
    // The line through T and U at φ(Q): i·y_Q − y_T − λ(−x_Q − x_T). A
    // vertical line lies in F_p and is dropped (denominator elimination).
    const auto line = [&](const Point& t, const Point& u) -> std::optional<Fp2> {
      const auto lambda = c.slope(t, u);
      if (!lambda) return std::nullopt;
      return Fp2{f.sub(f.mul(*lambda, f.add(q.x, t.x)), t.y), q.y};
    };

    Fp2 acc = f2.one();
    Point t = p;
    for (std::size_t i = n.bit_length() - 1; i-- > 0;) {
      acc = f2.mul(acc, acc);
      if (!t.infinity) {
        if (const auto l = line(t, t)) acc = f2.mul(acc, *l);
        t = c.dbl(t);
      }
      if (!n.bit(i)) continue;
      if (!t.infinity) {
        if (const auto l = line(t, p)) acc = f2.mul(acc, *l);
      }
      t = c.add(t, p);
    }
    // A zero Miller value only arises for degenerate evaluation points;
    // the pairing is then defined as 1.
    if (acc.a.is_zero() && acc.b.is_zero()) return f2.one();
    return f2.pow(acc, (f.p * f.p - BigUint{1}) / n);
  }
};

}  // namespace seccloud::reference
