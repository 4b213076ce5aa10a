// BlockLayout factories, ownership invariants, and the overlap query.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "layout/block_layout.hpp"

namespace ca3dmm {
namespace {

TEST(Layout, Row1D) {
  auto l = BlockLayout::row_1d(10, 4, 3);
  EXPECT_TRUE(l.covers_exactly());
  EXPECT_EQ(l.local_size(0), 4 * 4);  // rows 0..3
  EXPECT_EQ(l.local_size(1), 3 * 4);
  EXPECT_EQ(l.local_size(2), 3 * 4);
}

TEST(Layout, Col1D) {
  auto l = BlockLayout::col_1d(4, 10, 3);
  EXPECT_TRUE(l.covers_exactly());
  EXPECT_EQ(l.local_size(0), 4 * 4);
  EXPECT_EQ(l.rects_of(1)[0].c, (Range{4, 7}));
}

TEST(Layout, Grid2DRowMajor) {
  auto l = BlockLayout::grid_2d(6, 6, 2, 3);
  EXPECT_TRUE(l.covers_exactly());
  // Rank 4 = grid (1, 1): rows 3..5, cols 2..3
  EXPECT_EQ(l.rects_of(4)[0], (Rect{{3, 6}, {2, 4}}));
}

TEST(Layout, Grid2DColMajor) {
  auto l = BlockLayout::grid_2d(6, 6, 2, 3, /*col_major_ranks=*/true);
  EXPECT_TRUE(l.covers_exactly());
  // Rank 3 = (i=1, j=1) in column-major rank order: rows 3..5, cols 2..3
  EXPECT_EQ(l.rects_of(3)[0], (Rect{{3, 6}, {2, 4}}));
}

TEST(Layout, Single) {
  auto l = BlockLayout::single(5, 5, 2, 4);
  EXPECT_TRUE(l.covers_exactly());
  EXPECT_EQ(l.local_size(2), 25);
  EXPECT_EQ(l.local_size(0), 0);
}

TEST(Layout, MoreRanksThanRows) {
  auto l = BlockLayout::row_1d(2, 3, 5);
  EXPECT_TRUE(l.covers_exactly());
  EXPECT_EQ(l.local_size(0), 3);
  EXPECT_EQ(l.local_size(2), 0);  // empty block dropped
  EXPECT_TRUE(l.rects_of(4).empty());
}

TEST(Layout, LocalOffsetWithinMultipleRects) {
  BlockLayout l(4, 4, 2);
  l.add_rect(0, {{0, 2}, {0, 4}});   // 8 elements
  l.add_rect(0, {{2, 4}, {0, 2}});   // 4 elements
  l.add_rect(1, {{2, 4}, {2, 4}});
  EXPECT_TRUE(l.covers_exactly());
  EXPECT_EQ(l.local_offset(0, 0, 1, 3), 7);
  EXPECT_EQ(l.local_offset(0, 1, 2, 0), 8);
  EXPECT_EQ(l.local_offset(0, 1, 3, 1), 11);
}

TEST(Layout, OverlapDetected) {
  BlockLayout l(2, 2, 2);
  l.add_rect(0, {{0, 2}, {0, 2}});
  l.add_rect(1, {{0, 1}, {0, 1}});
  EXPECT_FALSE(l.covers_exactly());
}

TEST(Layout, GapDetected) {
  BlockLayout l(2, 2, 2);
  l.add_rect(0, {{0, 1}, {0, 2}});
  EXPECT_FALSE(l.covers_exactly());
}

TEST(Layout, BlockCyclicCoversExactly) {
  for (auto [rows, cols, pr, pc, rb, cb] :
       {std::tuple<i64, i64, int, int, i64, i64>{16, 16, 2, 2, 4, 4},
        {17, 13, 2, 3, 4, 2},
        {8, 8, 3, 2, 2, 3},
        {5, 5, 2, 2, 8, 8},    // tiles larger than the matrix
        {12, 1, 4, 1, 1, 1}}) {
    const auto l = BlockLayout::block_cyclic(rows, cols, pr, pc, rb, cb);
    EXPECT_TRUE(l.covers_exactly())
        << rows << "x" << cols << " grid " << pr << "x" << pc << " tiles "
        << rb << "x" << cb;
    EXPECT_EQ(l.nranks(), pr * pc);
  }
}

TEST(Layout, BlockCyclicRoundRobinAssignment) {
  // 8x8, 2x2 grid, 2x2 tiles: tile (ti, tj) -> rank (ti%2)*2 + tj%2.
  const auto l = BlockLayout::block_cyclic(8, 8, 2, 2, 2, 2);
  // Rank 0 owns tiles (0,0), (0,2), (2,0), (2,2) -> 4 rects.
  EXPECT_EQ(l.rects_of(0).size(), 4u);
  EXPECT_EQ(l.rects_of(0)[0], (Rect{{0, 2}, {0, 2}}));
  EXPECT_EQ(l.local_size(0), 16);
  // Rank 3 owns the odd-odd tiles.
  EXPECT_EQ(l.rects_of(3)[0], (Rect{{2, 4}, {2, 4}}));
}

TEST(Layout, RectIntersect) {
  Rect a{{0, 4}, {0, 4}}, b{{2, 6}, {3, 8}};
  EXPECT_EQ(intersect(a, b), (Rect{{2, 4}, {3, 4}}));
  Rect c{{4, 6}, {0, 4}};
  EXPECT_TRUE(intersect(a, c).empty());
}

}  // namespace
/// Oracle for BlockLayout::overlapping: every nonempty rect that meets q.
std::vector<RectRef> scan_overlaps(const BlockLayout& l, const Rect& q) {
  std::vector<RectRef> out;
  for (int r = 0; r < l.nranks(); ++r)
    for (size_t t = 0; t < l.rects_of(r).size(); ++t)
      if (!intersect(l.rects_of(r)[t], q).empty())
        out.push_back(RectRef{r, static_cast<int>(t)});
  return out;
}

std::vector<RectRef> sorted_overlaps(const BlockLayout& l, const Rect& q) {
  std::vector<RectRef> out;
  l.overlapping(q, out);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Layout, OverlapQueryMatchesScan) {
  // Layouts whose cheaper slab axis is rows, columns, or neither, plus a
  // hand-built one where a tall rect spans many row slabs.
  BlockLayout mixed(9, 8, 4);
  mixed.add_rect(0, {{0, 9}, {0, 3}});
  for (int r = 1; r < 4; ++r) mixed.add_rect(r, {{3 * (r - 1), 3 * r}, {3, 8}});
  const std::vector<BlockLayout> layouts{
      BlockLayout::row_1d(17, 5, 6), BlockLayout::col_1d(5, 17, 6),
      BlockLayout::grid_2d(13, 11, 3, 4, true),
      BlockLayout::block_cyclic(19, 14, 2, 3, 3, 2), mixed,
      BlockLayout::single(4, 4, 2, 3)};
  for (const BlockLayout& l : layouts)
    for (i64 r0 = 0; r0 < l.rows(); r0 += 2)
      for (i64 r1 = r0; r1 <= l.rows(); r1 += 3)
        for (i64 c0 = 0; c0 < l.cols(); c0 += 2)
          for (i64 c1 = c0; c1 <= l.cols(); c1 += 3) {
            const Rect q{{r0, r1}, {c0, c1}};
            ASSERT_EQ(sorted_overlaps(l, q), scan_overlaps(l, q))
                << l.rows() << "x" << l.cols() << " query [" << r0 << "," << r1
                << ")x[" << c0 << "," << c1 << ")";
          }
}

TEST(Layout, OverlapIndexFollowsAddRectAndCopies) {
  BlockLayout l(4, 4, 2);
  l.add_rect(0, {{0, 2}, {0, 4}});
  EXPECT_EQ(sorted_overlaps(l, {{0, 4}, {0, 4}}).size(), 1u);
  l.add_rect(1, {{2, 4}, {0, 4}});  // invalidates the index built above
  const BlockLayout copy = l;
  EXPECT_EQ(sorted_overlaps(l, {{0, 4}, {0, 4}}).size(), 2u);
  EXPECT_EQ(sorted_overlaps(copy, {{3, 4}, {1, 2}}),
            (std::vector<RectRef>{{1, 0}}));
}

TEST(Layout, OverlappingRectsRejectedByQuery) {
  BlockLayout l(2, 2, 2);
  l.add_rect(0, {{0, 2}, {0, 2}});
  l.add_rect(1, {{0, 1}, {0, 1}});
  std::vector<RectRef> out;
  EXPECT_THROW(l.overlapping({{0, 2}, {0, 2}}, out), Error);
}

TEST(Layout, ConcurrentFirstQueriesShareOneIndex) {
  // Threads race to build the index of one shared layout (TSan target);
  // every thread must see the scan's answer.
  const BlockLayout l = BlockLayout::block_cyclic(64, 48, 4, 3, 3, 5);
  std::vector<std::vector<RectRef>> got(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&, t] {
      got[static_cast<size_t>(t)] = sorted_overlaps(l, {{t, 40 + t}, {3, 30}});
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < 8; ++t)
    EXPECT_EQ(got[static_cast<size_t>(t)],
              scan_overlaps(l, {{t, 40 + t}, {3, 30}}))
        << "thread " << t;
}

}  // namespace ca3dmm
