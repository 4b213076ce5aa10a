// Distributed matrix layouts.
//
// A BlockLayout assigns every element of a global (rows x cols) index space
// to exactly one rank of a communicator; each rank owns an ordered list of
// disjoint rectangles. A rank's local buffer is the concatenation of its
// rectangles, each packed row-major, in list order.
//
// The library-native CA3DMM distributions (paper Fig. 2) and the user-facing
// distributions (1-D row/column, 2-D grid, single-owner) are all instances,
// which lets one generic redistribution routine (paper Algorithm 1 steps 4
// and 8) convert between any pair.
#pragma once

#include <array>
#include <compare>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/lazy.hpp"
#include "common/partition.hpp"

namespace ca3dmm {

/// Axis-aligned rectangle of a global index space: rows `r`, columns `c`,
/// both half-open.
struct Rect {
  Range r;
  Range c;

  i64 size() const { return r.size() * c.size(); }
  bool empty() const { return r.empty() || c.empty(); }

  friend bool operator==(const Rect&, const Rect&) = default;
};

inline Rect intersect(const Rect& a, const Rect& b) {
  return Rect{intersect(a.r, b.r), intersect(a.c, b.c)};
}

/// One rectangle of a layout: its owner and its index in the owner's list.
struct RectRef {
  int rank = 0;
  int idx = 0;

  friend auto operator<=>(const RectRef&, const RectRef&) = default;
};

/// Ownership map of a (rows x cols) global matrix over `nranks` ranks.
class BlockLayout {
 public:
  BlockLayout() = default;
  BlockLayout(i64 rows, i64 cols, int nranks)
      : rows_(rows), cols_(cols), rects_(static_cast<size_t>(nranks)) {}

  // ---- factories ----
  /// 1-D row partition: rank r owns the canonical row block r.
  static BlockLayout row_1d(i64 rows, i64 cols, int p);
  /// 1-D column partition.
  static BlockLayout col_1d(i64 rows, i64 cols, int p);
  /// 2-D grid: rank = pr_index * pc + pc_index (row-major rank order) or
  /// pc_index * pr + pr_index (column-major) over a pr x pc grid.
  static BlockLayout grid_2d(i64 rows, i64 cols, int pr, int pc,
                             bool col_major_ranks = false);
  /// Everything on one rank.
  static BlockLayout single(i64 rows, i64 cols, int owner, int nranks);
  /// ScaLAPACK-style 2-D block-cyclic distribution: tiles of rb x cb
  /// elements dealt round-robin onto a pr x pc process grid (row-major rank
  /// order). The paper highlights block-cyclic conversion as the layout
  /// real applications need (§V); COSMA ships a redistribution library for
  /// exactly this, and our generic redistribute() covers it because a rank
  /// may own many rectangles.
  static BlockLayout block_cyclic(i64 rows, i64 cols, int pr, int pc, i64 rb,
                                  i64 cb);

  i64 rows() const { return rows_; }
  i64 cols() const { return cols_; }
  int nranks() const { return static_cast<int>(rects_.size()); }

  /// Appends a rectangle to `rank`'s ownership list.
  void add_rect(int rank, const Rect& rect);

  /// Appends to `out`, in no particular order, every rectangle that meets
  /// `q`. The first query builds an index of the rectangles, cut into slabs
  /// along rows or columns (whichever stores fewer entries); copies of the
  /// layout made after that share it, and concurrent queries are safe. A
  /// query costs O(log R) per slab it crosses plus O(1) per rectangle it
  /// meets. Requires disjoint rectangles, like redistribution does.
  void overlapping(const Rect& q, std::vector<RectRef>& out) const;

  const std::vector<Rect>& rects_of(int rank) const {
    return rects_[static_cast<size_t>(rank)];
  }

  /// Number of elements rank owns (= its local buffer length).
  i64 local_size(int rank) const;

  /// Offset in `rank`'s local buffer of global element (i, j), which must lie
  /// inside the rank's rect with index `rect_idx`.
  i64 local_offset(int rank, size_t rect_idx, i64 i, i64 j) const;

  /// True iff every global element is owned by exactly one rank. O(total
  /// rect area) — meant for tests and debug assertions.
  bool covers_exactly() const;

  friend bool operator==(const BlockLayout& a, const BlockLayout& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.rects_ == b.rects_;
  }

 private:
  struct OverlapIndex;
  const OverlapIndex& index() const;

  i64 rows_ = 0, cols_ = 0;
  std::vector<std::vector<Rect>> rects_;  ///< per-rank ownership
  LazyShared<OverlapIndex> index_;        ///< built by the first query
};

/// N layouts a plan derives from its shape (its library-native A, B and C
/// layouts, say): built together on first use and shared by every copy of
/// the plan, so the ranks that execute a plan never build or copy a P-rank
/// layout of their own.
template <size_t N>
class PlanLayouts {
 public:
  using Set = std::array<BlockLayout, N>;

  template <typename Build>
  const Set& get(Build&& build) const {
    return cell_->get(std::forward<Build>(build));
  }

 private:
  std::shared_ptr<LazyShared<Set>> cell_ =
      std::make_shared<LazyShared<Set>>();
};

}  // namespace ca3dmm
