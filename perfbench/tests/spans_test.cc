#include "spans.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

Span Make(uint64_t id, uint64_t parent, int64_t start, int64_t end,
          int64_t dist = 0) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.dist_nanos = dist;
  return s;
}

TEST(SelfTimeTest, NoChildren) {
  const auto self = SelfNanos({Make(1, 0, 100, 200)});
  EXPECT_EQ(self.at(1), 100);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // Children [110,150) and [130,170) overlap each other: covered is the
  // union [110,170) = 60, not 80.
  const auto self = SelfNanos({Make(1, 0, 100, 200), Make(2, 1, 110, 150),
                               Make(3, 1, 130, 170)});
  EXPECT_EQ(self.at(1), 40);
  EXPECT_EQ(self.at(2), 40);
  EXPECT_EQ(self.at(3), 40);
}

TEST(SelfTimeTest, ChildrenRunningPastTheParentAreClipped) {
  // A child that started before and one that ended after the parent (work
  // handed to other threads) cover only their part inside the parent.
  const auto self = SelfNanos({Make(1, 0, 100, 200), Make(2, 1, 50, 120),
                               Make(3, 1, 180, 260), Make(4, 1, 140, 150)});
  EXPECT_EQ(self.at(1), 100 - 20 - 20 - 10);
}

TEST(SelfTimeTest, NestedGrandchildrenBelongToTheirParent) {
  const auto self = SelfNanos({Make(1, 0, 0, 100), Make(2, 1, 10, 90),
                               Make(3, 2, 20, 60)});
  EXPECT_EQ(self.at(1), 20);
  EXPECT_EQ(self.at(2), 40);
  EXPECT_EQ(self.at(3), 40);
}

TEST(SelfTimeTest, ChargedDistanceTimeIsNotSelfTime) {
  const auto self = SelfNanos({Make(1, 0, 0, 100, 30), Make(2, 1, 50, 70)});
  EXPECT_EQ(self.at(1), 100 - 20 - 30);
}

TEST(ScopedSpanTest, ParentIsTheEnclosingSpanOnThisThread) {
  SpanRecorder rec;
  {
    ScopedSpan outer(&rec, "outer");
    {
      ScopedSpan inner(&rec, "inner");
      EXPECT_TRUE(ScopedSpan::ChargeDistance(5));
    }
    EXPECT_TRUE(ScopedSpan::ChargeDistance(7));
  }
  EXPECT_FALSE(ScopedSpan::ChargeDistance(1));
  const std::vector<Span> spans = rec.Spans();
  ASSERT_EQ(spans.size(), 2u);
  const Span& inner = spans[0];
  const Span& outer = spans[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.dist_nanos, 5);
  EXPECT_EQ(outer.dist_nanos, 7);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);
  EXPECT_NE(rec.ChromeTraceJson().find("\"name\":\"inner\""),
            std::string::npos);
}

TEST(ScopedSpanTest, NullRecorderRecordsNothing) {
  ScopedSpan none(nullptr, "untraced");
  EXPECT_FALSE(ScopedSpan::ChargeDistance(1));
}

}  // namespace
}  // namespace perfbench
