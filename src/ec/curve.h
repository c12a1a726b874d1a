// Short-Weierstrass elliptic curves y^2 = x^3 + a·x + b over F_p.
//
// Used in two roles:
//   * the pairing group G1 (supersingular y^2 = x^3 + x, see src/pairing);
//   * the ECDSA baseline (NIST P-256, see ec/p256.h).
//
// Affine points are the public value type; add/dbl and scalar
// multiplication run in Jacobian coordinates on the field's fixed-limb
// Montgomery core (ec/jacobian.h), converting only at entry and exit.
#pragma once

#include <optional>
#include <vector>

#include "field/fp.h"

namespace seccloud::ec {

using field::BigUint;
using field::PrimeField;

/// Affine point; the point at infinity is {infinity = true}.
struct Point {
  BigUint x;
  BigUint y;
  bool infinity = true;

  static Point at_infinity() { return {}; }
  static Point affine(BigUint px, BigUint py) { return {std::move(px), std::move(py), false}; }

  bool operator==(const Point&) const = default;
};

/// A curve instance: field, coefficients, subgroup order and cofactor.
class Curve {
 public:
  /// `field` must outlive the curve. `order` is the order of the subgroup of
  /// interest (prime q); `cofactor` is #E / order (may be large for the
  /// supersingular pairing curve).
  Curve(const PrimeField& fld, BigUint a, BigUint b, BigUint order, BigUint cofactor);

  const PrimeField& fp() const noexcept { return *field_; }
  const BigUint& a() const noexcept { return a_; }
  const BigUint& b() const noexcept { return b_; }
  const BigUint& order() const noexcept { return order_; }
  const BigUint& cofactor() const noexcept { return cofactor_; }

  /// Is the affine point on the curve (infinity counts as on-curve)?
  bool is_on_curve(const Point& pt) const;

  Point add(const Point& lhs, const Point& rhs) const;
  Point dbl(const Point& pt) const;
  Point neg(const Point& pt) const;
  /// Scalar multiplication k·P (width-4 wNAF; double-and-add for scalars of
  /// at most 8 bits and for base points of order 3, 5 or 7).
  Point mul(const BigUint& k, const Point& pt) const;

  /// Sum of k_i·P_i (interleaved double-and-add with a shared doubling
  /// chain; used by ECDSA verify and batch checks).
  Point multi_mul(std::span<const BigUint> scalars, std::span<const Point> points) const;

  /// y^2 = x^3 + a·x + b solved for y (the lexicographically smaller root is
  /// returned if `even_y` else the other). nullopt if x is not on the curve.
  std::optional<Point> lift_x(const BigUint& x, bool even_y) const;

  /// Uncompressed serialization: 0x00 for infinity, else 0x04 ‖ X ‖ Y with
  /// fixed-width big-endian coordinates.
  std::vector<std::uint8_t> serialize(const Point& pt) const;
  /// Inverse of serialize(); std::nullopt on malformed or off-curve input.
  std::optional<Point> deserialize(std::span<const std::uint8_t> bytes) const;

  /// SEC1-style compressed serialization: 0x00 for infinity, else
  /// (0x02 | y-parity) ‖ X — roughly halves signature transmission cost.
  std::vector<std::uint8_t> serialize_compressed(const Point& pt) const;
  std::optional<Point> deserialize_compressed(std::span<const std::uint8_t> bytes) const;

  /// Uniform random point in the full curve (hash-free; for tests).
  Point random_point(num::RandomSource& rng) const;

 private:
  const PrimeField* field_;
  BigUint a_;
  BigUint b_;
  BigUint order_;
  BigUint cofactor_;
  field::fixed::Fe a_mont_;  ///< a in the Montgomery domain
};

}  // namespace seccloud::ec
