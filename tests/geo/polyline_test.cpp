#include "geo/polyline.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dtn::geo {
namespace {

Polyline unit_square_closed() {
  return Polyline({{0, 0}, {1, 0}, {1, 1}, {0, 1}}, /*closed=*/true);
}

TEST(Polyline, EmptyAndSinglePoint) {
  const Polyline empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.total_length(), 0.0);
  EXPECT_EQ(empty.point_at(5.0), (Vec2{0.0, 0.0}));

  const Polyline single({{2.0, 3.0}});
  EXPECT_DOUBLE_EQ(single.total_length(), 0.0);
  EXPECT_EQ(single.point_at(10.0), (Vec2{2.0, 3.0}));
}

TEST(Polyline, OpenLength) {
  const Polyline line({{0, 0}, {3, 0}, {3, 4}});
  EXPECT_DOUBLE_EQ(line.total_length(), 7.0);
  EXPECT_FALSE(line.closed());
}

TEST(Polyline, ClosedLengthIncludesClosingSegment) {
  const Polyline square = unit_square_closed();
  EXPECT_DOUBLE_EQ(square.total_length(), 4.0);
  EXPECT_TRUE(square.closed());
}

TEST(Polyline, PointAtOpenClamps) {
  const Polyline line({{0, 0}, {10, 0}});
  EXPECT_EQ(line.point_at(-5.0), (Vec2{0.0, 0.0}));
  EXPECT_EQ(line.point_at(15.0), (Vec2{10.0, 0.0}));
  EXPECT_EQ(line.point_at(4.0), (Vec2{4.0, 0.0}));
}

TEST(Polyline, PointAtClosedWraps) {
  const Polyline square = unit_square_closed();
  const Vec2 at_half = square.point_at(0.5);
  const Vec2 wrapped = square.point_at(4.5);
  EXPECT_NEAR(at_half.x, wrapped.x, 1e-12);
  EXPECT_NEAR(at_half.y, wrapped.y, 1e-12);
  // Negative arc length wraps backwards.
  const Vec2 back = square.point_at(-0.5);
  const Vec2 same = square.point_at(3.5);
  EXPECT_NEAR(back.x, same.x, 1e-12);
  EXPECT_NEAR(back.y, same.y, 1e-12);
}

TEST(Polyline, PointAtClosingSegment) {
  const Polyline square = unit_square_closed();
  // s = 3.5 lies in the middle of the closing edge (0,1) -> (0,0).
  const Vec2 p = square.point_at(3.5);
  EXPECT_NEAR(p.x, 0.0, 1e-12);
  EXPECT_NEAR(p.y, 0.5, 1e-12);
}

TEST(Polyline, ProjectOntoSegmentInterior) {
  const Polyline line({{0, 0}, {10, 0}});
  EXPECT_NEAR(line.project(Vec2{4.0, 3.0}), 4.0, 1e-12);
}

TEST(Polyline, ProjectClampsToEndpoints) {
  const Polyline line({{0, 0}, {10, 0}});
  EXPECT_NEAR(line.project(Vec2{-5.0, 1.0}), 0.0, 1e-12);
  EXPECT_NEAR(line.project(Vec2{50.0, 1.0}), 10.0, 1e-12);
}

TEST(Polyline, ProjectPicksNearestSegmentOnClosed) {
  const Polyline square = unit_square_closed();
  // A point just left of the closing edge x=0 between y in (0,1).
  const double s = square.project(Vec2{-0.1, 0.5});
  EXPECT_NEAR(s, 3.5, 1e-9);
}

TEST(Polyline, RoundTripPointAtAndProject) {
  const Polyline square = unit_square_closed();
  for (const double s : {0.25, 1.3, 2.75, 3.9}) {
    const Vec2 p = square.point_at(s);
    EXPECT_NEAR(square.project(p), s, 1e-9) << "arc length " << s;
  }
}

TEST(Polyline, DegenerateRepeatedPoints) {
  const Polyline line({{1, 1}, {1, 1}, {2, 1}});
  EXPECT_DOUBLE_EQ(line.total_length(), 1.0);
  const Vec2 p = line.point_at(0.5);
  EXPECT_NEAR(p.x, 1.5, 1e-12);
}

TEST(Polyline, HintedPointAtIsBitIdenticalToPointAt) {
  const Polyline square = unit_square_closed();
  // Monotone sweep (the bus cursor pattern), many wraps, with exact
  // equality required — the hinted walk must land on upper_bound's segment.
  std::uint32_t hint = 0;
  for (double s = 0.0; s < 40.0; s += 0.037) {
    const Vec2 want = square.point_at(s);
    const Vec2 got = square.point_at_hinted(s, hint);
    ASSERT_EQ(got.x, want.x) << "s=" << s;
    ASSERT_EQ(got.y, want.y) << "s=" << s;
  }
  // Backward jumps invalidate the hint; the fallback must still agree.
  for (const double s : {3.9, 0.1, 2.5, 1.0, 3.999, 0.0}) {
    const Vec2 want = square.point_at(s);
    const Vec2 got = square.point_at_hinted(s, hint);
    ASSERT_EQ(got.x, want.x) << "s=" << s;
    ASSERT_EQ(got.y, want.y) << "s=" << s;
  }
}

TEST(Polyline, HintedPointAtHandlesDegenerateShapes) {
  std::uint32_t hint = 7;  // bogus hint must be tolerated
  const Polyline empty;
  EXPECT_EQ(empty.point_at_hinted(1.0, hint), Vec2{});
  hint = 3;
  const Polyline single({{2, 3}});
  EXPECT_EQ(single.point_at_hinted(5.0, hint), (Vec2{2, 3}));
  hint = 99;  // out-of-range hint on a real line
  const Polyline line({{0, 0}, {10, 0}});
  const Vec2 p = line.point_at_hinted(4.0, hint);
  EXPECT_EQ(p, line.point_at(4.0));
}

}  // namespace
}  // namespace dtn::geo
