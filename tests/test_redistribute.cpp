// Redistribution engine: conversion between arbitrary layout pairs,
// transpose-on-the-fly, idle ranks, and volume accounting; the indexed
// segment enumeration against a scan over all rank pairs; and a complexity
// guard at P=2^17.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/cosma_like.hpp"
#include "common/rng.hpp"
#include "core/plan.hpp"
#include "layout/redistribute.hpp"
#include "linalg/matrix.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/coll_cost.hpp"

namespace ca3dmm {
namespace {

using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;

/// Fills this rank's local buffer under `layout` from the virtual global
/// random matrix `seed` (in source orientation).
void fill_local(const BlockLayout& layout, int rank, std::uint64_t seed,
                std::vector<double>& buf) {
  buf.assign(static_cast<size_t>(layout.local_size(rank)), 0.0);
  i64 pos = 0;
  for (const Rect& r : layout.rects_of(rank))
    for (i64 i = r.r.lo; i < r.r.hi; ++i)
      for (i64 j = r.c.lo; j < r.c.hi; ++j)
        buf[static_cast<size_t>(pos++)] = matrix_entry<double>(seed, i, j);
}

/// Checks this rank's local buffer under `layout` against the global matrix,
/// optionally with transposed coordinates (local (i,j) == global (j,i)).
void check_local(const BlockLayout& layout, int rank, std::uint64_t seed,
                 const std::vector<double>& buf, bool transposed) {
  ASSERT_EQ(buf.size(), static_cast<size_t>(layout.local_size(rank)));
  i64 pos = 0;
  for (const Rect& r : layout.rects_of(rank))
    for (i64 i = r.r.lo; i < r.r.hi; ++i)
      for (i64 j = r.c.lo; j < r.c.hi; ++j) {
        const double expect = transposed ? matrix_entry<double>(seed, j, i)
                                         : matrix_entry<double>(seed, i, j);
        ASSERT_DOUBLE_EQ(buf[static_cast<size_t>(pos++)], expect)
            << "rank " << rank << " (" << i << "," << j << ")";
      }
}

void roundtrip(const BlockLayout& src, const BlockLayout& dst, int P,
               bool transpose = false) {
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    std::vector<double> in, out(static_cast<size_t>(dst.local_size(c.rank())));
    fill_local(src, c.rank(), 42, in);
    redistribute<double>(c, src, in.data(), dst, out.data(), transpose);
    check_local(dst, c.rank(), 42, out, transpose);
  });
}

TEST(Redistribute, Row1DToCol1D) {
  roundtrip(BlockLayout::row_1d(13, 9, 4), BlockLayout::col_1d(13, 9, 4), 4);
}

TEST(Redistribute, Col1DToGrid2D) {
  roundtrip(BlockLayout::col_1d(12, 10, 6), BlockLayout::grid_2d(12, 10, 2, 3),
            6);
}

TEST(Redistribute, Grid2DToGrid2DDifferentShape) {
  roundtrip(BlockLayout::grid_2d(16, 16, 4, 2),
            BlockLayout::grid_2d(16, 16, 2, 4), 8);
}

TEST(Redistribute, GatherToSingleRank) {
  roundtrip(BlockLayout::grid_2d(7, 11, 3, 2), BlockLayout::single(7, 11, 5, 6),
            6);
}

TEST(Redistribute, ScatterFromSingleRank) {
  roundtrip(BlockLayout::single(9, 9, 0, 5), BlockLayout::row_1d(9, 9, 5), 5);
}

TEST(Redistribute, IdentityLayout) {
  roundtrip(BlockLayout::row_1d(8, 8, 4), BlockLayout::row_1d(8, 8, 4), 4);
}

TEST(Redistribute, TransposeRow1DToRow1D) {
  // A (5 x 8) row-partitioned -> A^T (8 x 5) row-partitioned.
  roundtrip(BlockLayout::row_1d(5, 8, 4), BlockLayout::row_1d(8, 5, 4), 4,
            /*transpose=*/true);
}

TEST(Redistribute, TransposeGrid2D) {
  roundtrip(BlockLayout::grid_2d(6, 10, 2, 2),
            BlockLayout::grid_2d(10, 6, 2, 2), 4, /*transpose=*/true);
}

TEST(Redistribute, IdleRanksParticipate) {
  // Layouts span 6 ranks but ranks 4, 5 own nothing in either layout.
  auto src = BlockLayout::row_1d(8, 8, 6);  // blocks sized 2,2,1,1,1,1
  BlockLayout dst(8, 8, 6);
  dst.add_rect(0, {{0, 8}, {0, 4}});
  dst.add_rect(1, {{0, 8}, {4, 8}});
  ASSERT_TRUE(dst.covers_exactly());
  roundtrip(src, dst, 6);
}

TEST(Redistribute, MultiRectDestination) {
  BlockLayout dst(6, 6, 3);
  dst.add_rect(0, {{0, 3}, {0, 3}});
  dst.add_rect(0, {{3, 6}, {3, 6}});
  dst.add_rect(1, {{0, 3}, {3, 6}});
  dst.add_rect(2, {{3, 6}, {0, 3}});
  ASSERT_TRUE(dst.covers_exactly());
  roundtrip(BlockLayout::col_1d(6, 6, 3), dst, 3);
}

TEST(Redistribute, RandomizedLayoutPairsProperty) {
  // Property sweep: random grid shapes on both sides must round-trip.
  Rng rng(7);
  for (int iter = 0; iter < 12; ++iter) {
    const int P = static_cast<int>(rng.uniform(2, 8));
    const i64 m = rng.uniform(1, 20), n = rng.uniform(1, 20);
    auto pick = [&](i64 rows, i64 cols) {
      switch (rng.uniform(0, 3)) {
        case 0: return BlockLayout::row_1d(rows, cols, P);
        case 1: return BlockLayout::col_1d(rows, cols, P);
        case 2: {
          // Random divisor of P so the grid spans exactly P ranks.
          std::vector<int> divs;
          for (int d = 1; d <= P; ++d)
            if (P % d == 0) divs.push_back(d);
          const int pr = divs[static_cast<size_t>(
              rng.uniform(0, static_cast<i64>(divs.size()) - 1))];
          return BlockLayout::grid_2d(rows, cols, pr, P / pr,
                                      rng.uniform(0, 1) == 1);
        }
        default:
          return BlockLayout::single(rows, cols,
                                     static_cast<int>(rng.uniform(0, P - 1)), P);
      }
    };
    auto src = pick(m, n);
    const bool transpose = rng.uniform(0, 1) == 1;
    auto dst = transpose ? pick(n, m) : pick(m, n);
    // Grid factory may span fewer ranks than P owns; ensure full coverage.
    ASSERT_TRUE(src.covers_exactly());
    ASSERT_TRUE(dst.covers_exactly());
    roundtrip(src, dst, P, transpose);
  }
}

TEST(Redistribute, BlockCyclicToNativeStyle) {
  // ScaLAPACK block-cyclic -> contiguous 2-D grid and back (the conversion
  // path the paper's §V discusses for real applications).
  const auto bc = BlockLayout::block_cyclic(18, 14, 2, 2, 3, 2);
  const auto grid = BlockLayout::grid_2d(18, 14, 2, 2);
  roundtrip(bc, grid, 4);
  roundtrip(grid, bc, 4);
}

TEST(Redistribute, BlockCyclicTranspose) {
  const auto bc = BlockLayout::block_cyclic(10, 6, 2, 3, 2, 2);
  const auto dst = BlockLayout::block_cyclic(6, 10, 3, 2, 2, 2);
  roundtrip(bc, dst, 6, /*transpose=*/true);
}

TEST(Redistribute, VolumeExcludesSelfTraffic) {
  auto l = BlockLayout::row_1d(8, 8, 4);
  auto v = redistribution_volume(l, l, false, 8);
  EXPECT_EQ(v.max_send_bytes, 0);
  EXPECT_EQ(v.max_recv_bytes, 0);
}

TEST(Redistribute, VolumeRowToCol) {
  // 4x4 over 2 ranks: row blocks 2x4 -> col blocks 4x2. Each rank keeps a
  // 2x2 quadrant and ships a 2x2 quadrant: 4 elements * 8 bytes.
  auto v = redistribution_volume(BlockLayout::row_1d(4, 4, 2),
                                 BlockLayout::col_1d(4, 4, 2), false, 8);
  EXPECT_EQ(v.max_send_bytes, 32);
  EXPECT_EQ(v.max_recv_bytes, 32);
}

/// The executed redistribution must agree with its analytic prediction
/// *exactly*: every rank's per-phase sent/received bytes equal the
/// redistribution_volume per-rank vectors, and every rank's charged virtual
/// time equals t_alltoallv_machine of the predicted worst off-self volume
/// (all ranks enter the all-to-all at clock 0, so exit = entry + cost).
void check_volume_prediction(const BlockLayout& src, const BlockLayout& dst,
                             int P, bool transpose, const Machine& mach) {
  const RedistVolume v =
      redistribution_volume(src, dst, transpose, sizeof(double));
  ASSERT_EQ(static_cast<int>(v.send_bytes.size()), P);
  ASSERT_EQ(static_cast<int>(v.recv_bytes.size()), P);

  Cluster cl(P, mach);
  cl.run([&](Comm& c) {
    std::vector<double> in, out(static_cast<size_t>(dst.local_size(c.rank())));
    fill_local(src, c.rank(), 11, in);
    redistribute<double>(c, src, in.data(), dst, out.data(), transpose);
  });

  std::vector<int> members(static_cast<size_t>(P));
  for (int r = 0; r < P; ++r) members[static_cast<size_t>(r)] = r;
  const simmpi::GroupProfile prof =
      simmpi::GroupProfile::from_world_ranks(mach, members);
  const double expect_t = simmpi::t_alltoallv_machine(
      mach, simmpi::group_link(mach, prof),
      static_cast<double>(std::max(v.max_send_bytes, v.max_recv_bytes)), P,
      prof.single_node);

  for (int r = 0; r < P; ++r) {
    const simmpi::RankStats& s = cl.stats(r);
    EXPECT_EQ(s.bytes_sent(simmpi::Phase::kMisc),
              static_cast<double>(v.send_bytes[static_cast<size_t>(r)]))
        << "rank " << r;
    EXPECT_EQ(s.bytes_recvd(simmpi::Phase::kMisc),
              static_cast<double>(v.recv_bytes[static_cast<size_t>(r)]))
        << "rank " << r;
    EXPECT_EQ(s.vtime, expect_t) << "rank " << r;
  }
}

TEST(Redistribute, ExecutedMatchesVolumePredictionExactly) {
  check_volume_prediction(BlockLayout::grid_2d(13, 9, 3, 2),
                          BlockLayout::col_1d(13, 9, 6), 6, false,
                          Machine::unit_test());
}

TEST(Redistribute, ExecutedMatchesVolumePredictionMultiNode) {
  // Phoenix-like parameters with 4 ranks per node: P=8 spans two nodes, so
  // the all-to-all pays the congestion-adjusted multi-node rate and the
  // comparison pins that path too.
  Machine mach = Machine::phoenix_mpi();
  mach.ranks_per_node = 4;
  mach.cores_per_node = 4;
  check_volume_prediction(BlockLayout::grid_2d(16, 16, 4, 2),
                          BlockLayout::grid_2d(16, 16, 2, 4), 8, false, mach);
}

TEST(Redistribute, ExecutedMatchesVolumePredictionTranspose) {
  check_volume_prediction(BlockLayout::grid_2d(6, 10, 2, 2),
                          BlockLayout::grid_2d(10, 6, 2, 2), 4, true,
                          Machine::unit_test());
}

/// Oracle: the scan over all P x P rank pairs and every rect pair that
/// redistribution ran before overlap queries replaced it.
std::vector<RedistSegment> scan_segments(const BlockLayout& src,
                                         const BlockLayout& dst, bool transpose,
                                         int rank, bool sending) {
  std::vector<RedistSegment> out;
  for (int peer = 0; peer < src.nranks(); ++peer) {
    const int s = sending ? rank : peer, d = sending ? peer : rank;
    const auto& srects = src.rects_of(s);
    const auto& drects = dst.rects_of(d);
    for (size_t si = 0; si < srects.size(); ++si)
      for (size_t di = 0; di < drects.size(); ++di) {
        const Rect& dr = drects[di];
        const Rect inter =
            intersect(srects[si], transpose ? Rect{dr.c, dr.r} : dr);
        if (!inter.empty())
          out.push_back(RedistSegment{peer, static_cast<int>(si),
                                      static_cast<int>(di), inter});
      }
  }
  return out;
}

RedistVolume scan_volume(const BlockLayout& src, const BlockLayout& dst,
                         bool transpose, i64 esize) {
  const int P = src.nranks();
  RedistVolume v;
  for (auto* vec : {&v.send_bytes, &v.recv_bytes, &v.send_staging_bytes,
                    &v.recv_staging_bytes})
    vec->assign(static_cast<size_t>(P), 0);
  for (int s = 0; s < P; ++s)
    for (const RedistSegment& sg : scan_segments(src, dst, transpose, s, true)) {
      const i64 bytes = sg.r.size() * esize;
      v.send_staging_bytes[static_cast<size_t>(s)] += bytes;
      v.recv_staging_bytes[static_cast<size_t>(sg.peer)] += bytes;
      if (sg.peer == s) continue;
      v.send_bytes[static_cast<size_t>(s)] += bytes;
      v.recv_bytes[static_cast<size_t>(sg.peer)] += bytes;
    }
  for (int r = 0; r < P; ++r) {
    v.max_send_bytes =
        std::max(v.max_send_bytes, v.send_bytes[static_cast<size_t>(r)]);
    v.max_recv_bytes =
        std::max(v.max_recv_bytes, v.recv_bytes[static_cast<size_t>(r)]);
  }
  return v;
}

/// A random layout of a rows x cols matrix over P ranks: 1-D, 2-D in
/// either rank order, block-cyclic, single-owner, or a CA3DMM / COSMA
/// native layout (which leave ranks idle when the grid does not use all P).
BlockLayout random_layout(Rng& rng, i64 rows, i64 cols, int P) {
  std::vector<int> divs;
  for (int d = 1; d <= P; ++d)
    if (P % d == 0) divs.push_back(d);
  const int pr = divs[static_cast<size_t>(
      rng.uniform(0, static_cast<i64>(divs.size()) - 1))];
  const i64 other = rng.uniform(1, 16);
  switch (rng.uniform(0, 8)) {
    case 0: return BlockLayout::row_1d(rows, cols, P);
    case 1: return BlockLayout::col_1d(rows, cols, P);
    case 2: return BlockLayout::grid_2d(rows, cols, pr, P / pr, false);
    case 3: return BlockLayout::grid_2d(rows, cols, pr, P / pr, true);
    case 4:
      return BlockLayout::block_cyclic(rows, cols, pr, P / pr,
                                       rng.uniform(1, 4), rng.uniform(1, 4));
    case 5:
      return BlockLayout::single(rows, cols,
                                 static_cast<int>(rng.uniform(0, P - 1)), P);
    case 6: return Ca3dmmPlan::make(rows, other, cols, P).a_native();
    case 7: return Ca3dmmPlan::make(other, cols, rows, P).b_native();
    default: return CosmaPlan::make(rows, cols, other, P).c_native();
  }
}

TEST(RedistOracle, IndexedEnumerationMatchesPairScan) {
  Rng rng(2026);
  for (int iter = 0; iter < 60; ++iter) {
    const int P = static_cast<int>(rng.uniform(1, 13));
    const i64 m = rng.uniform(1, 24), n = rng.uniform(1, 24);
    const bool transpose = rng.uniform(0, 2) == 0;
    const BlockLayout src = random_layout(rng, m, n, P);
    const BlockLayout dst =
        transpose ? random_layout(rng, n, m, P) : random_layout(rng, m, n, P);
    ASSERT_TRUE(src.covers_exactly());
    ASSERT_TRUE(dst.covers_exactly());
    SCOPED_TRACE(::testing::Message() << "iter " << iter << " P=" << P
                                      << " transpose=" << transpose);
    for (int r = 0; r < P; ++r)
      for (bool sending : {true, false})
        ASSERT_EQ(redistribution_segments(src, dst, transpose, r, sending),
                  scan_segments(src, dst, transpose, r, sending))
            << "rank " << r << (sending ? " sends" : " receives");
    const RedistVolume got = redistribution_volume(src, dst, transpose, 8);
    const RedistVolume want = scan_volume(src, dst, transpose, 8);
    EXPECT_EQ(got.max_send_bytes, want.max_send_bytes);
    EXPECT_EQ(got.max_recv_bytes, want.max_recv_bytes);
    EXPECT_EQ(got.send_bytes, want.send_bytes);
    EXPECT_EQ(got.recv_bytes, want.recv_bytes);
    EXPECT_EQ(got.send_staging_bytes, want.send_staging_bytes);
    EXPECT_EQ(got.recv_staging_bytes, want.recv_staging_bytes);
    // Executed: the data lands, and every rank's bytes and vtime match the
    // (oracle-checked) prediction.
    roundtrip(src, dst, P, transpose);
    check_volume_prediction(src, dst, P, transpose, Machine::unit_test());
  }
}

TEST(RedistComplexity, VolumeAtP131072) {
  // Row blocks onto a 2-column grid: O(P) overlapping rect pairs in all,
  // where a scan over rank pairs would test 1.7e10 of them. Registered
  // with a 10 s ctest timeout.
  const int P = 1 << 17;
  const i64 rows = 3 * static_cast<i64>(P) + 7, cols = 6;
  const BlockLayout src = BlockLayout::row_1d(rows, cols, P);
  const BlockLayout dst = BlockLayout::grid_2d(rows, cols, P / 2, 2);
  const RedistVolume v = redistribution_volume(src, dst, false, 8);
  i64 staged = 0, wire = 0;
  for (int r = 0; r < P; ++r) {
    staged += v.send_staging_bytes[static_cast<size_t>(r)];
    wire += v.send_bytes[static_cast<size_t>(r)];
  }
  EXPECT_EQ(staged, rows * cols * 8);
  EXPECT_GT(wire, 0);
  EXPECT_LT(wire, staged);
  // Rank 5 owns rows [20, 24) of the source; grid rows 2 and 3 are
  // [14, 21) and [21, 28), split into two column halves each.
  const auto segs = redistribution_segments(src, dst, false, 5, true);
  ASSERT_EQ(segs.size(), 4u);
  for (int t = 0; t < 4; ++t) EXPECT_EQ(segs[static_cast<size_t>(t)].peer, 4 + t);
}

}  // namespace
}  // namespace ca3dmm
