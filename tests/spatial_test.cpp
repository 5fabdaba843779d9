// Copyright (c) 2026 The tsq Authors.
//
// Tests for the spatial layer: rectangle geometry, the RKV95 NN metrics,
// and the AffineMap that realizes safe transformations on MBRs —
// including the property at the heart of Definition 1 / Algorithm 1:
// a point inside a rectangle stays inside the transformed rectangle.

#include <cmath>
#include <numbers>

#include "common/random.h"
#include "gtest/gtest.h"
#include "spatial/affine_map.h"
#include "spatial/metrics.h"
#include "spatial/rect.h"
#include "test_util.h"

namespace tsq {
namespace spatial {
namespace {

constexpr double kPi = std::numbers::pi;

using tsq::testing::RandomPoint;
using tsq::testing::RandomRect;

// ---------------------------------------------------------------------------
// Rect
// ---------------------------------------------------------------------------

TEST(RectTest, ConstructionAndAccessors) {
  Rect r({0.0, -1.0}, {2.0, 3.0});
  EXPECT_EQ(r.dims(), 2u);
  EXPECT_EQ(r.lo(0), 0.0);
  EXPECT_EQ(r.hi(1), 3.0);
  EXPECT_FALSE(r.IsEmpty());
  EXPECT_FALSE(r.ToString().empty());
}

TEST(RectTest, FromPointIsDegenerate) {
  Rect r = Rect::FromPoint({1.0, 2.0, 3.0});
  EXPECT_EQ(r.lo(), r.hi());
  EXPECT_TRUE(r.Contains({1.0, 2.0, 3.0}));
  EXPECT_FALSE(r.IsEmpty());
}

TEST(RectTest, EmptyRect) {
  Rect e = Rect::Empty(3);
  EXPECT_TRUE(e.IsEmpty());
  const Rect r({0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});
  e.ExpandToInclude(r);
  EXPECT_EQ(e, r);  // empty is the union identity
  EXPECT_TRUE(Rect().IsEmpty());
}

TEST(RectTest, IntersectionTests) {
  Rect a({0.0, 0.0}, {2.0, 2.0});
  Rect b({1.0, 1.0}, {3.0, 3.0});
  Rect c({2.0, 2.0}, {4.0, 4.0});  // touches a at a corner
  Rect d({5.0, 5.0}, {6.0, 6.0});
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_TRUE(a.Intersects(c));  // closed rectangles: touching intersects
  EXPECT_FALSE(a.Intersects(d));
}

TEST(RectTest, ContainsIsClosed) {
  Rect a({0.0, 0.0}, {4.0, 4.0});
  EXPECT_TRUE(a.Contains({0.0, 0.0}));  // boundary is inside (closed)
  EXPECT_TRUE(a.Contains({2.0, 4.0}));
  EXPECT_FALSE(a.Contains({2.0, 4.1}));
}

TEST(RectTest, ExpandToIncludeRectCoversBoth) {
  Rect u({0.0, 0.0}, {1.0, 1.0});
  u.ExpandToInclude(Rect({2.0, 2.0}, {3.0, 3.0}));
  EXPECT_EQ(u, Rect({0.0, 0.0}, {3.0, 3.0}));
  Rect same = u;
  same.ExpandToInclude(u);
  EXPECT_EQ(same, u);
}

TEST(RectTest, GrownExpandsEverySide) {
  Rect a({1.0, 1.0}, {2.0, 2.0});
  Rect g = a.Grown(0.5);
  EXPECT_EQ(g, Rect({0.5, 0.5}, {2.5, 2.5}));
}

TEST(RectTest, ExpandToIncludePoint) {
  Rect a = Rect::Empty(2);
  a.ExpandToInclude(Point{1.0, 5.0});
  a.ExpandToInclude(Point{-2.0, 3.0});
  EXPECT_EQ(a, Rect({-2.0, 3.0}, {1.0, 5.0}));
}

TEST(RectTest, UnionIsCommutativeAndCoversBothProperty) {
  Rng rng(101);
  for (int trial = 0; trial < 100; ++trial) {
    const Rect a = RandomRect(&rng, 4);
    const Rect b = RandomRect(&rng, 4);
    Rect ab = a;
    ab.ExpandToInclude(b);
    Rect ba = b;
    ba.ExpandToInclude(a);
    EXPECT_EQ(ab, ba);
    for (const Rect* r : {&a, &b}) {
      EXPECT_TRUE(ab.Contains(r->lo()) && ab.Contains(r->hi()));
      EXPECT_TRUE(ab.Intersects(*r));
    }
    EXPECT_EQ(a.Intersects(b), b.Intersects(a));
  }
}

// ---------------------------------------------------------------------------
// MINDIST / MINMAXDIST
// ---------------------------------------------------------------------------

TEST(MetricsTest, MinDistBasics) {
  Rect r({0.0, 0.0}, {2.0, 2.0});
  EXPECT_EQ(MinDistSquared({1.0, 1.0}, r), 0.0);   // inside
  EXPECT_EQ(MinDistSquared({2.0, 2.0}, r), 0.0);   // corner
  EXPECT_NEAR(MinDistSquared({3.0, 1.0}, r), 1.0, 1e-12);
  EXPECT_NEAR(MinDistSquared({3.0, 3.0}, r), 2.0, 1e-12);
  EXPECT_NEAR(MinDistSquared({-1.0, -1.0}, r), 2.0, 1e-12);
}

TEST(MetricsTest, MinDistLowerBoundsContainedPointsProperty) {
  // For any p and any point q inside R: MINDIST(p, R) <= d(p, q).
  Rng rng(103);
  for (int trial = 0; trial < 200; ++trial) {
    Rect r = RandomRect(&rng, 3);
    Point p = RandomPoint(&rng, 3, -150.0, 150.0);
    Point q(3);
    for (size_t d = 0; d < 3; ++d) q[d] = rng.Uniform(r.lo(d), r.hi(d));
    EXPECT_LE(MinDistSquared(p, r), PointDistSquared(p, q) + 1e-9);
  }
}

TEST(MetricsTest, MinMaxDistAtLeastMinDistProperty) {
  Rng rng(104);
  for (int trial = 0; trial < 200; ++trial) {
    Rect r = RandomRect(&rng, 4);
    Point p = RandomPoint(&rng, 4, -150.0, 150.0);
    EXPECT_GE(MinMaxDistSquared(p, r), MinDistSquared(p, r) - 1e-9);
  }
}

TEST(MetricsTest, MinMaxDistUpperBoundsSomeFacePoint) {
  // MINMAXDIST must be attainable: it equals the distance to some point on
  // the rect's boundary, hence <= the max-corner distance.
  Rng rng(105);
  for (int trial = 0; trial < 100; ++trial) {
    Rect r = RandomRect(&rng, 3);
    Point p = RandomPoint(&rng, 3);
    double max_corner = 0.0;
    for (int corner = 0; corner < 8; ++corner) {
      Point c(3);
      for (size_t d = 0; d < 3; ++d) {
        c[d] = (corner >> d & 1) ? r.hi(d) : r.lo(d);
      }
      max_corner = std::max(max_corner, PointDistSquared(p, c));
    }
    EXPECT_LE(MinMaxDistSquared(p, r), max_corner + 1e-9);
  }
}

TEST(MetricsTest, MinDistToDegenerateRectIsExact) {
  Rng rng(106);
  for (int trial = 0; trial < 50; ++trial) {
    Point q = RandomPoint(&rng, 5);
    Point p = RandomPoint(&rng, 5);
    EXPECT_NEAR(MinDistSquared(p, Rect::FromPoint(q)), PointDistSquared(p, q),
                1e-9);
  }
}

TEST(MetricsTest, PointSegmentDistance) {
  // Horizontal segment (0,0)-(2,0).
  EXPECT_NEAR(PointSegmentDistSquared(1.0, 1.0, 0, 0, 2, 0), 1.0, 1e-12);
  EXPECT_NEAR(PointSegmentDistSquared(3.0, 0.0, 0, 0, 2, 0), 1.0, 1e-12);
  EXPECT_NEAR(PointSegmentDistSquared(-1.0, 0.0, 0, 0, 2, 0), 1.0, 1e-12);
  EXPECT_NEAR(PointSegmentDistSquared(1.0, 0.0, 0, 0, 2, 0), 0.0, 1e-12);
  // Degenerate segment = point distance.
  EXPECT_NEAR(PointSegmentDistSquared(1.0, 1.0, 0, 0, 0, 0), 2.0, 1e-12);
}

// ---------------------------------------------------------------------------
// AffineMap
// ---------------------------------------------------------------------------

TEST(AffineMapTest, IdentityMapsEverythingToItself) {
  AffineMap id = AffineMap::Identity(3);
  EXPECT_TRUE(id.IsIdentity());
  Rng rng(107);
  Point p = RandomPoint(&rng, 3);
  EXPECT_EQ(id.Apply(p), p);
  Rect r = RandomRect(&rng, 3);
  EXPECT_EQ(id.Apply(r), r);
}

TEST(AffineMapTest, AppliesScaleAndOffset) {
  AffineMap m({2.0, -1.0}, {1.0, 0.0});
  Point p = m.Apply({3.0, 4.0});
  EXPECT_EQ(p[0], 7.0);
  EXPECT_EQ(p[1], -4.0);
  // Negative scale must flip the interval, not invert it.
  Rect r = m.Apply(Rect({0.0, 1.0}, {1.0, 2.0}));
  EXPECT_EQ(r, Rect({1.0, -2.0}, {3.0, -1.0}));
}

TEST(AffineMapTest, SafetyPropertyPointsStayInside) {
  // Definition 1: interior points map to interior points — checked by
  // sampling, including negative scales.
  Rng rng(108);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t dims = 1 + static_cast<size_t>(rng.UniformInt(1, 5));
    std::vector<double> scale(dims);
    std::vector<double> offset(dims);
    for (size_t d = 0; d < dims; ++d) {
      scale[d] = rng.Uniform(-3.0, 3.0);
      offset[d] = rng.Uniform(-10.0, 10.0);
    }
    AffineMap map(scale, offset);
    Rect r = RandomRect(&rng, dims);
    Rect tr = map.Apply(r);
    for (int s = 0; s < 10; ++s) {
      Point q(dims);
      for (size_t d = 0; d < dims; ++d) q[d] = rng.Uniform(r.lo(d), r.hi(d));
      EXPECT_TRUE(tr.Contains(map.Apply(q)));
    }
  }
}

TEST(AffineMapTest, WrapAngleCanonicalRange) {
  EXPECT_NEAR(WrapAngle(0.0), 0.0, 1e-12);
  EXPECT_NEAR(WrapAngle(kPi), kPi, 1e-12);
  EXPECT_NEAR(WrapAngle(-kPi), kPi, 1e-12);  // -pi wraps to +pi
  EXPECT_NEAR(WrapAngle(3 * kPi), kPi, 1e-9);
  EXPECT_NEAR(WrapAngle(2 * kPi + 0.5), 0.5, 1e-9);
  EXPECT_NEAR(WrapAngle(-2 * kPi - 0.5), -0.5, 1e-9);
}

TEST(AffineMapTest, AngularDimensionRotation) {
  AffineMap rot({1.0}, {kPi / 2}, {true});
  Point p = rot.Apply(Point{kPi / 4});
  EXPECT_NEAR(p[0], 3 * kPi / 4, 1e-12);
  // Rotating past the cut wraps.
  Point q = rot.Apply(Point{3 * kPi / 4});
  EXPECT_NEAR(q[0], -3 * kPi / 4, 1e-9);
}

TEST(AffineMapTest, AngularIntervalNonWrappingStaysTight) {
  AffineMap rot({1.0}, {0.5}, {true});
  Rect r({-0.2}, {0.2});
  Rect tr = rot.Apply(r);
  EXPECT_NEAR(tr.lo(0), 0.3, 1e-12);
  EXPECT_NEAR(tr.hi(0), 0.7, 1e-12);
}

TEST(AffineMapTest, AngularIntervalWrappingWhollyStaysTight) {
  // An interval pushed entirely past +pi wraps cleanly to the negative
  // side and stays tight.
  AffineMap rot({1.0}, {1.0}, {true});
  Rect r({kPi - 0.5}, {kPi - 0.1});
  Rect tr = rot.Apply(r);
  EXPECT_NEAR(tr.lo(0), -kPi + 0.5, 1e-9);
  EXPECT_NEAR(tr.hi(0), -kPi + 0.9, 1e-9);
}

TEST(AffineMapTest, AngularIntervalStraddlingCutWidensToCircle) {
  // An interval that straddles the +-pi cut after rotation cannot be a
  // plain interval: it is widened to the whole circle (conservative).
  AffineMap rot({1.0}, {0.3}, {true});
  Rect r({kPi - 0.5}, {kPi - 0.1});  // -> [pi-0.2, pi+0.2]: straddles
  Rect tr = rot.Apply(r);
  EXPECT_NEAR(tr.lo(0), -kPi, 1e-12);
  EXPECT_NEAR(tr.hi(0), kPi, 1e-12);
}

TEST(AffineMapTest, AngularSafetyPointsStayInsideProperty) {
  // Even with wrap-widening, transformed points stay inside transformed
  // rects (the superset property Lemma 1 relies on).
  Rng rng(109);
  for (int trial = 0; trial < 300; ++trial) {
    const double rot = rng.Uniform(-2 * kPi, 2 * kPi);
    AffineMap map({1.0}, {rot}, {true});
    const double lo = rng.Uniform(-kPi, kPi - 0.01);
    const double hi = rng.Uniform(lo, kPi);
    Rect r({lo}, {hi});
    Rect tr = map.Apply(r);
    for (int s = 0; s < 5; ++s) {
      Point q{rng.Uniform(lo, hi)};
      EXPECT_TRUE(tr.Contains(map.Apply(q)))
          << "rot=" << rot << " interval=[" << lo << "," << hi << "]";
    }
  }
}

TEST(AffineMapTest, ComposeMatchesSequentialApplication) {
  Rng rng(110);
  for (int trial = 0; trial < 50; ++trial) {
    AffineMap f({rng.Uniform(-2, 2), rng.Uniform(-2, 2)},
                {rng.Uniform(-5, 5), rng.Uniform(-5, 5)});
    AffineMap g({rng.Uniform(-2, 2), rng.Uniform(-2, 2)},
                {rng.Uniform(-5, 5), rng.Uniform(-5, 5)});
    AffineMap fg = f.Compose(g);
    Point p = RandomPoint(&rng, 2);
    Point expected = f.Apply(g.Apply(p));
    Point actual = fg.Apply(p);
    EXPECT_NEAR(actual[0], expected[0], 1e-9);
    EXPECT_NEAR(actual[1], expected[1], 1e-9);
  }
}

}  // namespace
}  // namespace spatial
}  // namespace tsq
