// Differential harness for the fixed-limb Montgomery core and everything
// built on it (ctest label `differential`).
//
// Every operation is checked against the plain reference in
// reference_arith.h on random and adversarial inputs: 0, 1, p−1, p−2,
// (p+1)/2, and the Montgomery constants R mod p and R² mod p (the values
// that straddle the R/p boundary). MontCtx, PrimeField, the curve (mul,
// multi_mul, add, dbl), the pairing and FixedPairing line replay must all
// agree with it exactly, including on the degenerate points (2-torsion,
// order-3 points that force the T = P addition step, negated Q, infinity)
// that the random suites essentially never hit.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ec/curve.h"
#include "ec/p256.h"
#include "field/fp.h"
#include "field/fp_fixed.h"
#include "pairing/group.h"
#include "pairing/precompute.h"
#include "property_support.h"
#include "reference_arith.h"

namespace seccloud {
namespace {

using field::PrimeField;
using field::fixed::Fe;
using field::fixed::MontCtx;
using num::BigUint;
using num::Xoshiro256;
using pairing::PairingGroup;
using pairing::Point;
using testsupport::property_iters;

// ---------------------------------------------------------------------------
// MontCtx vs the reference
// ---------------------------------------------------------------------------

class MontCtxDifferential : public ::testing::TestWithParam<const char*> {
 protected:
  MontCtxDifferential() : p(BigUint::from_hex(GetParam())), ctx(p), rng(2024) {}

  /// Adversarial residues plus seeded random ones.
  std::vector<BigUint> interesting_values() {
    std::vector<BigUint> vals{
        BigUint{},                                 // 0
        BigUint{1},                                // 1
        BigUint{2},                                //
        p - BigUint{1},                            // p − 1
        p - BigUint{2},                            // p − 2
        (p + BigUint{1}) >> 1,                     // (p+1)/2
        (BigUint{1} << (64 * p.limb_count())) % p, // R mod p
        (BigUint{1} << (128 * p.limb_count())) % p // R² mod p
    };
    const std::size_t iters = property_iters(24);
    for (std::size_t i = 0; i < iters; ++i) vals.push_back(rng.next_below(p));
    return vals;
  }

  BigUint p;
  MontCtx ctx;
  Xoshiro256 rng;
};

TEST_P(MontCtxDifferential, RoundTripsAndDomainConversions) {
  for (const BigUint& a : interesting_values()) {
    const Fe fe = ctx.from_biguint(a);
    EXPECT_EQ(ctx.to_biguint(fe), a);
    // to_mont/from_mont must be mutually inverse on every residue.
    EXPECT_EQ(ctx.to_biguint(ctx.from_mont(ctx.to_mont(fe))), a);
    // And the Montgomery representative must equal a·R mod p.
    const BigUint r = (BigUint{1} << (64 * p.limb_count())) % p;
    EXPECT_EQ(ctx.to_biguint(ctx.to_mont(fe)), (a * r) % p);
  }
}

TEST_P(MontCtxDifferential, AddSubNegMatchReference) {
  const auto vals = interesting_values();
  for (const BigUint& a : vals) {
    const Fe fa = ctx.load(a);
    EXPECT_EQ(ctx.to_biguint(ctx.neg(fa)), a.is_zero() ? BigUint{} : p - a);
    for (const BigUint& b : vals) {
      const Fe fb = ctx.load(b);
      EXPECT_EQ(ctx.to_biguint(ctx.add(fa, fb)), (a + b) % p);
      const BigUint expect_sub = a >= b ? a - b : a + p - b;
      EXPECT_EQ(ctx.to_biguint(ctx.sub(fa, fb)), expect_sub);
    }
  }
}

TEST_P(MontCtxDifferential, MulAndSqrMatchReference) {
  const auto vals = interesting_values();
  for (const BigUint& a : vals) {
    const Fe fa = ctx.load(a);
    EXPECT_EQ(ctx.to_biguint(ctx.sqr_canonical(fa)), a.squared() % p);
    // Montgomery-domain closure: mont_mul(ã, b̃) = (a·b)~.
    const Fe ma = ctx.to_mont(fa);
    EXPECT_EQ(ctx.to_biguint(ctx.from_mont(ctx.mont_sqr(ma))), a.squared() % p);
    for (const BigUint& b : vals) {
      const Fe fb = ctx.load(b);
      EXPECT_EQ(ctx.to_biguint(ctx.mul_canonical(fa, fb)), (a * b) % p);
      const Fe mb = ctx.to_mont(fb);
      EXPECT_EQ(ctx.to_biguint(ctx.from_mont(ctx.mont_mul(ma, mb))), (a * b) % p);
    }
  }
}

TEST_P(MontCtxDifferential, MulWordMatchesReference) {
  const std::uint64_t words[] = {0, 1, 2, 3, 4, 8, 0xFFFFFFFFFFFFFFFFull};
  for (const BigUint& a : interesting_values()) {
    const Fe fa = ctx.load(a);
    for (const std::uint64_t k : words) {
      BigUint expect = a;
      expect *= k;
      EXPECT_EQ(ctx.to_biguint(ctx.mul_word(fa, k)), expect % p);
    }
  }
}

TEST_P(MontCtxDifferential, PowMatchesReference) {
  const reference::Field reference{p};
  const std::vector<BigUint> exponents{BigUint{},          BigUint{1},
                                       BigUint{2},         BigUint{16},
                                       p - BigUint{1},     p - BigUint{2},
                                       rng.next_below(p)};
  for (const BigUint& a : interesting_values()) {
    const Fe ma = ctx.to_mont(ctx.load(a));
    for (const BigUint& e : exponents) {
      EXPECT_EQ(ctx.to_biguint(ctx.from_mont(ctx.pow_mont(ma, e))),
                reference.pow(a, e));
    }
  }
}

TEST_P(MontCtxDifferential, InverseMatchesReferenceAndVerifies) {
  const reference::Field reference{p};
  EXPECT_FALSE(ctx.inv_mont(Fe{}).has_value());
  for (const BigUint& a : interesting_values()) {
    if (a.is_zero()) continue;
    const Fe ma = ctx.to_mont(ctx.load(a));
    const auto iv = ctx.inv_mont(ma);
    ASSERT_TRUE(iv.has_value()) << a.to_hex();
    EXPECT_EQ(ctx.to_biguint(ctx.from_mont(*iv)), *reference.inv(a));
    // a·a⁻¹ = 1 in-domain.
    EXPECT_EQ(ctx.to_biguint(ctx.from_mont(ctx.mont_mul(ma, *iv))), BigUint{1});
  }
}

TEST_P(MontCtxDifferential, BatchInversionMatchesSingles) {
  std::vector<Fe> xs;
  std::vector<BigUint> raw;
  for (const BigUint& a : interesting_values()) {
    if (a.is_zero()) continue;
    raw.push_back(a);
    xs.push_back(ctx.to_mont(ctx.load(a)));
  }
  const std::vector<Fe> inv = ctx.inv_batch_mont(xs);
  ASSERT_EQ(inv.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(ctx.to_biguint(ctx.from_mont(inv[i])),
              ctx.to_biguint(ctx.from_mont(*ctx.inv_mont(xs[i]))));
  }
  EXPECT_THROW(ctx.inv_batch_mont(std::vector<Fe>{Fe{}}), std::domain_error);
}

INSTANTIATE_TEST_SUITE_P(
    Moduli, MontCtxDifferential,
    ::testing::Values(
        // The pinned 512-bit SS512 prime (8 limbs — the production width).
        "b7310e862efdfa3df84ca43f1e167c67802b80efc019a0f6ee55a30059ccffb44e02bfe"
        "78b9182024ef8b78563010f4d6eaa581df379f1e9fcd912a61fa26b6f",
        // The tiny 96-bit test prime (2 limbs).
        "a1d1466b6a6152952b0112f3",
        // One-limb primes: 2^64 − 59 and a small one (Tonelli–Shanks class).
        "ffffffffffffffc5", "d"));

// MontCtx must refuse what it cannot represent, and so must PrimeField,
// which has no other arithmetic.
TEST(MontCtxGuards, RejectsUnsupportedModuli) {
  EXPECT_FALSE(MontCtx::fits(BigUint{4}));          // even
  EXPECT_FALSE(MontCtx::fits(BigUint{1}));          // < 3
  EXPECT_FALSE(MontCtx::fits(BigUint{1} << 520));   // > 8 limbs (and even)
  const BigUint wide = (BigUint{1} << 520) + BigUint{21};
  EXPECT_FALSE(MontCtx::fits(wide));                // > 8 limbs, odd
  EXPECT_THROW(MontCtx{wide}, std::invalid_argument);
  EXPECT_THROW(PrimeField{wide}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PrimeField vs the reference
// ---------------------------------------------------------------------------

class PrimeFieldBackendDifferential : public ::testing::TestWithParam<const char*> {
 protected:
  PrimeFieldBackendDifferential()
      : p(BigUint::from_hex(GetParam())), field(p), reference{p}, rng(77) {}

  BigUint p;
  PrimeField field;
  reference::Field reference;
  Xoshiro256 rng;
};

TEST_P(PrimeFieldBackendDifferential, AllOperationsBitIdentical) {
  const BigUint r = (BigUint{1} << (64 * p.limb_count())) % p;
  std::vector<BigUint> vals{BigUint{},     BigUint{1},          BigUint{2},
                            p - BigUint{1}, p - BigUint{2},     (p + BigUint{1}) >> 1,
                            r,              (r * r) % p};
  const std::size_t iters = property_iters(16);
  for (std::size_t i = 0; i < iters; ++i) vals.push_back(rng.next_below(p));

  std::vector<BigUint> nonzero;
  for (const BigUint& a : vals) {
    if (!a.is_zero()) nonzero.push_back(a);
    EXPECT_EQ(field.reduce(a + p), a);
    EXPECT_EQ(field.reduce(a + p * p * p), a);
    EXPECT_EQ(field.neg(a), reference.neg(a));
    EXPECT_EQ(field.sqr(a), reference.mul(a, a));
    for (const std::uint64_t k : {0ull, 2ull, 3ull, 8ull, 0xFFFFFFFFFFFFFFFFull}) {
      EXPECT_EQ(field.mul_small(a, k), reference.mul(a, BigUint{k}));
    }
    EXPECT_EQ(field.pow(a, p - BigUint{2}), reference.pow(a, p - BigUint{2}));
    EXPECT_EQ(field.inv(a), reference.inv(a));
    // The reference does not pick a root; it checks the defining property.
    if (const auto root = field.sqrt(a)) {
      EXPECT_EQ(reference.mul(*root, *root), a);
    } else {
      EXPECT_FALSE(reference.is_square(a)) << a.to_hex();
    }
    for (const BigUint& b : vals) {
      EXPECT_EQ(field.add(a, b), reference.add(a, b));
      EXPECT_EQ(field.sub(a, b), reference.sub(a, b));
      EXPECT_EQ(field.mul(a, b), reference.mul(a, b));
    }
  }
  std::vector<std::optional<BigUint>> batch;
  for (const BigUint& v : field.inv_batch(nonzero)) batch.emplace_back(v);
  std::vector<std::optional<BigUint>> singles;
  for (const BigUint& v : nonzero) singles.push_back(reference.inv(v));
  EXPECT_EQ(batch, singles);
}

INSTANTIATE_TEST_SUITE_P(
    Moduli, PrimeFieldBackendDifferential,
    ::testing::Values(
        "b7310e862efdfa3df84ca43f1e167c67802b80efc019a0f6ee55a30059ccffb44e02bfe"
        "78b9182024ef8b78563010f4d6eaa581df379f1e9fcd912a61fa26b6f",
        "a1d1466b6a6152952b0112f3",
        // p ≡ 1 (mod 4): exercises the Tonelli–Shanks sqrt.
        "ffffffffffffffc5"));

// ---------------------------------------------------------------------------
// Curve and pairing vs the reference, on both pinned pairing groups
// ---------------------------------------------------------------------------

/// A pinned pairing group with its reference counterpart.
struct Checked {
  explicit Checked(const PairingGroup& g)
      : group(g), curve{{g.params().p}, BigUint{1}}, pairing{curve, g.order()} {}
  const PairingGroup& group;
  reference::Curve curve;
  reference::Pairing pairing;
};

std::vector<Checked>& groups() {
  static std::vector<Checked> all{Checked{pairing::tiny_group()},
                                  Checked{pairing::default_group()}};
  return all;
}

/// Points of order dividing d on the full curve (order p + 1), via the
/// cofactor map ((p+1)/d)·R for random R. Requires d | p + 1.
Point small_order_point(const PairingGroup& g, std::uint64_t d, Xoshiro256& rng) {
  const BigUint full_order = g.params().p + BigUint{1};
  EXPECT_TRUE((full_order % BigUint{d}).is_zero());
  const BigUint cof = full_order / BigUint{d};
  for (int attempt = 0; attempt < 64; ++attempt) {
    const Point r = g.curve().random_point(rng);
    const Point s = g.curve().mul(cof, r);
    if (!s.infinity) return s;
  }
  ADD_FAILURE() << "no point of order dividing " << d << " found";
  return Point::at_infinity();
}

TEST(CurveBackendDifferential, ScalarMultiplicationBitIdentical) {
  for (const Checked& c : groups()) {
    Xoshiro256 rng(5150);
    const Point& g = c.group.generator();
    const BigUint& q = c.group.order();
    std::vector<BigUint> scalars{BigUint{1}, BigUint{2},  BigUint{3},
                                 BigUint{7}, BigUint{255}, BigUint{256},
                                 q - BigUint{1}, q};
    const std::size_t iters = property_iters(8);
    for (std::size_t i = 0; i < iters; ++i) scalars.push_back(c.group.random_scalar(rng));

    for (const BigUint& k : scalars) {
      EXPECT_EQ(c.group.curve().mul(k, g), c.curve.mul(k, g)) << "k=" << k.to_hex();
    }
    // multi_mul walks a different (interleaved) ladder — compare it too.
    const Point g2 = c.curve.dbl(g);
    const std::vector<Point> pts{g, g2, c.group.curve().neg(g), Point::at_infinity()};
    const std::vector<BigUint> ks{scalars[0], scalars.back(), q - BigUint{1}, BigUint{5}};
    Point expect = Point::at_infinity();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      expect = c.curve.add(expect, c.curve.mul(ks[i], pts[i]));
    }
    EXPECT_EQ(c.group.curve().multi_mul(ks, pts), expect);
  }
}

TEST(CurveBackendDifferential, AddAndDoubleMatchReference) {
  for (const Checked& c : groups()) {
    Xoshiro256 rng(1701);
    const ec::Curve& curve = c.group.curve();
    const Point o = Point::at_infinity();
    const Point p = c.group.mul(c.group.random_scalar(rng), c.group.generator());
    const Point q = c.group.mul(c.group.random_scalar(rng), c.group.generator());
    const Point two_torsion = Point::affine(BigUint{}, BigUint{});
    const Point order3 = small_order_point(c.group, 3, rng);
    const Point order4 = small_order_point(c.group, 4, rng);
    const std::vector<Point> points{o, p, q, curve.neg(p), two_torsion, order3,
                                    curve.neg(order3), order4};
    for (const Point& a : points) {
      EXPECT_EQ(curve.dbl(a), c.curve.dbl(a)) << a.x.to_hex();
      for (const Point& b : points) {
        EXPECT_EQ(curve.add(a, b), c.curve.add(a, b)) << a.x.to_hex() << "+" << b.x.to_hex();
      }
    }
  }
}

TEST(CurveBackendDifferential, GeneralCoefficientCurveMatchesReference) {
  // P-256 has a = −3, so the doubling takes the a·Z⁴ multiply that the
  // pairing curve (a = 1) skips.
  const ec::P256 p256;
  const ec::Curve& curve = p256.curve();
  const reference::Curve ref{{curve.fp().modulus()}, curve.a()};
  Xoshiro256 rng(256);
  const Point& g = p256.generator();
  const Point h = curve.mul(rng.next_below(p256.order()), g);
  EXPECT_EQ(curve.add(g, h), ref.add(g, h));
  EXPECT_EQ(curve.add(h, h), ref.add(h, h));
  EXPECT_EQ(curve.add(h, curve.neg(h)), ref.add(h, curve.neg(h)));
  EXPECT_EQ(curve.dbl(h), ref.dbl(h));
  for (const BigUint& k : {BigUint{3}, BigUint{1000}, rng.next_below(p256.order())}) {
    EXPECT_EQ(curve.mul(k, h), ref.mul(k, h)) << k.to_hex();
  }
  const std::vector<BigUint> ks{BigUint{7}, rng.next_below(p256.order())};
  const std::vector<Point> pts{g, h};
  EXPECT_EQ(curve.multi_mul(ks, pts), ref.add(ref.mul(ks[0], g), ref.mul(ks[1], h)));
}

TEST(CurveBackendDifferential, SmallOrderBasePointsSurviveWnafTable) {
  // Regression: the wNAF precompute table holds the odd multiples 3P, 5P,
  // 7P, and a base point of order 3 collapses 3P to O mid-table — the batch
  // affine conversion used to throw domain_error for any scalar wide enough
  // to leave the tiny double-and-add path.
  for (const Checked& c : groups()) {
    Xoshiro256 rng(271828);
    const BigUint& q = c.group.order();
    for (const std::uint64_t d : {2ull, 3ull, 4ull}) {
      const Point pt = small_order_point(c.group, d, rng);
      for (const BigUint& k :
           {BigUint{256}, BigUint{1000}, q, q + BigUint{12345}}) {
        EXPECT_EQ(c.group.curve().mul(k, pt), c.curve.mul(k, pt))
            << "d=" << d << " k=" << k.to_hex();
      }
    }
  }
}

TEST(PairingBackendDifferential, PairingsBitIdentical) {
  for (const Checked& c : groups()) {
    Xoshiro256 rng(31337);
    const Point& g = c.group.generator();
    for (std::size_t i = 0; i < property_iters(4); ++i) {
      const Point a = c.group.mul(c.group.random_scalar(rng), g);
      const Point b = c.group.mul(c.group.random_scalar(rng), g);
      EXPECT_EQ(c.group.pair(a, b), c.pairing.pair(a, b));
    }
    // Bilinearity holds on the production path.
    const Point a = c.group.mul(BigUint{5}, g);
    EXPECT_EQ(c.group.pair(a, g), c.group.gt_pow(c.group.pair(g, g), BigUint{5}));
  }
}

TEST(PairingBackendDifferential, FixedPairingMatchesDirectPairing) {
  for (const Checked& c : groups()) {
    Xoshiro256 rng(404);
    const Point& g = c.group.generator();
    const Point fixed_arg = c.group.mul(c.group.random_scalar(rng), g);
    const pairing::FixedPairing fixed(c.group, fixed_arg);
    for (std::size_t i = 0; i < property_iters(4); ++i) {
      const Point q = c.group.mul(c.group.random_scalar(rng), g);
      const auto expect = c.pairing.pair(fixed_arg, q);
      EXPECT_EQ(fixed.pair_with(q), expect);
      EXPECT_EQ(c.group.pair(fixed_arg, q), expect);
    }
  }
}

// ---------------------------------------------------------------------------
// Degenerate-point differential: small-torsion points drive the Miller loop
// through the T = P tangent step, the y = 0 doubling, and T = −P vertical
// line — paths random subgroup points never reach. The direct pairing and
// FixedPairing replay must both match the reference.
// ---------------------------------------------------------------------------

TEST(PairingEdgePointDifferential, DegeneratePathsBitIdentical) {
  for (const Checked& c : groups()) {
    Xoshiro256 rng(8086);
    const Point& g = c.group.generator();
    const Point q1 = c.group.mul(c.group.random_scalar(rng), g);

    // (0, 0) is the canonical 2-torsion point of y² = x³ + x; order-3 and
    // order-4 points come from cofactor maps (3 | p+1 and 4 | p+1 on both
    // pinned curves).
    const Point two_torsion = Point::affine(BigUint{}, BigUint{});
    ASSERT_TRUE(c.group.curve().is_on_curve(two_torsion));
    ASSERT_TRUE(c.group.curve().mul(BigUint{2}, two_torsion).infinity);
    const Point order3 = small_order_point(c.group, 3, rng);
    const Point order4 = small_order_point(c.group, 4, rng);

    const std::vector<std::pair<Point, Point>> cases{
        {two_torsion, q1},                    // y = 0 doubling → infinity
        {two_torsion, two_torsion},           //
        {order3, q1},                         // forces T = P addition steps
        {order3, order3},                     //
        {order4, q1},                         // hits 2-torsion mid-ladder
        {q1, two_torsion},                    // degenerate evaluation side
        {q1, c.group.neg(q1)},                // negated Q
        {g, q1},                              // sanity: generic pair
    };
    for (const auto& [a, b] : cases) {
      const auto expect = c.pairing.pair(a, b);
      EXPECT_EQ(c.group.pair(a, b), expect) << a.x.to_hex() << "," << a.y.to_hex();
      EXPECT_EQ(pairing::FixedPairing(c.group, a).pair_with(b), expect);
    }

    // Infinity on either side short-circuits to 1 everywhere.
    const Point inf = Point::at_infinity();
    EXPECT_EQ(c.group.pair(inf, q1), c.group.gt_one());
    EXPECT_EQ(c.group.pair(q1, inf), c.group.gt_one());
    EXPECT_EQ(pairing::FixedPairing(c.group, inf).pair_with(q1), c.group.gt_one());
    EXPECT_EQ(pairing::FixedPairing(c.group, q1).pair_with(inf), c.group.gt_one());
  }
}

}  // namespace
}  // namespace seccloud
