#include "layout/block_layout.hpp"

#include <algorithm>
#include <vector>

namespace ca3dmm {

BlockLayout BlockLayout::row_1d(i64 rows, i64 cols, int p) {
  BlockLayout l(rows, cols, p);
  for (int r = 0; r < p; ++r) {
    Rect rect{block_range(rows, p, r), Range{0, cols}};
    if (!rect.empty()) l.add_rect(r, rect);
  }
  return l;
}

BlockLayout BlockLayout::col_1d(i64 rows, i64 cols, int p) {
  BlockLayout l(rows, cols, p);
  for (int r = 0; r < p; ++r) {
    Rect rect{Range{0, rows}, block_range(cols, p, r)};
    if (!rect.empty()) l.add_rect(r, rect);
  }
  return l;
}

BlockLayout BlockLayout::grid_2d(i64 rows, i64 cols, int pr, int pc,
                                 bool col_major_ranks) {
  BlockLayout l(rows, cols, pr * pc);
  for (int i = 0; i < pr; ++i)
    for (int j = 0; j < pc; ++j) {
      const int rank = col_major_ranks ? j * pr + i : i * pc + j;
      Rect rect{block_range(rows, pr, i), block_range(cols, pc, j)};
      if (!rect.empty()) l.add_rect(rank, rect);
    }
  return l;
}

BlockLayout BlockLayout::single(i64 rows, i64 cols, int owner, int nranks) {
  BlockLayout l(rows, cols, nranks);
  l.add_rect(owner, Rect{Range{0, rows}, Range{0, cols}});
  return l;
}

BlockLayout BlockLayout::block_cyclic(i64 rows, i64 cols, int pr, int pc,
                                      i64 rb, i64 cb) {
  CA_REQUIRE(pr >= 1 && pc >= 1 && rb >= 1 && cb >= 1,
             "bad block-cyclic parameters");
  BlockLayout l(rows, cols, pr * pc);
  for (i64 r0 = 0; r0 < rows; r0 += rb) {
    const i64 tile_i = r0 / rb;
    const Range rr{r0, std::min(rows, r0 + rb)};
    for (i64 c0 = 0; c0 < cols; c0 += cb) {
      const i64 tile_j = c0 / cb;
      const Range cc{c0, std::min(cols, c0 + cb)};
      const int rank = static_cast<int>(tile_i % pr) * pc +
                       static_cast<int>(tile_j % pc);
      l.add_rect(rank, Rect{rr, cc});
    }
  }
  return l;
}

void BlockLayout::add_rect(int rank, const Rect& rect) {
  CA_ASSERT(rank >= 0 && rank < nranks());
  CA_ASSERT(rect.r.lo >= 0 && rect.r.hi <= rows_ && rect.c.lo >= 0 &&
            rect.c.hi <= cols_);
  rects_[static_cast<size_t>(rank)].push_back(rect);
  index_.reset();
}

/// Slab decomposition of a layout's rectangles. The distinct rectangle
/// edges along one axis (the slab axis) cut the index space into slabs;
/// every nonempty rectangle is listed once per slab it spans. Inside a slab
/// the rectangles are disjoint along the other axis, so they sort by their
/// start there and a query finds its first one by binary search.
struct BlockLayout::OverlapIndex {
  bool by_cols = false;       ///< slab axis: columns (else rows)
  std::vector<i64> bounds;    ///< slab t is [bounds[t], bounds[t+1])
  std::vector<size_t> first;  ///< slab t's entries: [first[t], first[t+1])
  std::vector<RectRef> entries;
};

namespace {

/// Extent of `r` along the slab axis (`along`) or the other axis.
const Range& axis(const Rect& r, bool by_cols, bool along) {
  return by_cols == along ? r.c : r.r;
}

size_t slab_of(const std::vector<i64>& bounds, i64 x) {
  return static_cast<size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), x) - bounds.begin());
}

}  // namespace

const BlockLayout::OverlapIndex& BlockLayout::index() const {
  return index_.get([&] {
    auto for_each_rect = [&](auto&& fn) {
      for (int rank = 0; rank < nranks(); ++rank) {
        const auto& rs = rects_of(rank);
        for (size_t t = 0; t < rs.size(); ++t)
          if (!rs[t].empty()) fn(rs[t], RectRef{rank, static_cast<int>(t)});
      }
    };
    size_t nrects = 0;
    for_each_rect([&](const Rect&, RectRef) { ++nrects; });
    // Slab edges along one axis, and how many entries that axis stores.
    auto slabs = [&](bool by_cols, size_t* count) {
      std::vector<i64> b;
      b.reserve(2 * nrects);
      for_each_rect([&](const Rect& r, RectRef) {
        b.push_back(axis(r, by_cols, true).lo);
        b.push_back(axis(r, by_cols, true).hi);
      });
      std::sort(b.begin(), b.end());
      b.erase(std::unique(b.begin(), b.end()), b.end());
      b.shrink_to_fit();
      *count = 0;
      for_each_rect([&](const Rect& r, RectRef) {
        const Range& a = axis(r, by_cols, true);
        *count += slab_of(b, a.hi) - slab_of(b, a.lo);
      });
      return b;
    };
    // The axis that stores fewer entries wins.
    OverlapIndex ix;
    size_t by_rows = 0, by_cols = 0;
    ix.bounds = slabs(false, &by_rows);
    std::vector<i64> col_bounds = slabs(true, &by_cols);
    ix.by_cols = by_cols < by_rows;
    if (ix.by_cols) ix.bounds.swap(col_bounds);
    col_bounds = {};
    const size_t nslabs = ix.bounds.empty() ? 0 : ix.bounds.size() - 1;

    // Counting sort of the entries by slab: first[t + 1] counts slab t,
    // becomes slab t's fill cursor, and ends as slab t + 1's start.
    auto for_each_slab = [&](auto&& fn) {
      for_each_rect([&](const Rect& r, RectRef ref) {
        const Range& a = axis(r, ix.by_cols, true);
        for (size_t t = slab_of(ix.bounds, a.lo); t < slab_of(ix.bounds, a.hi);
             ++t)
          fn(t, ref);
      });
    };
    ix.first.assign(nslabs + 1, 0);
    for_each_slab([&](size_t t, RectRef) { ++ix.first[t + 1]; });
    for (size_t t = 0; t < nslabs; ++t) ix.first[t + 1] += ix.first[t];
    ix.entries.resize(ix.first[nslabs]);
    std::copy_backward(ix.first.begin(), ix.first.end() - 1, ix.first.end());
    for_each_slab([&](size_t t, RectRef ref) {
      ix.entries[ix.first[t + 1]++] = ref;
    });
    auto across = [&](RectRef e) -> const Range& {
      return axis(rects_of(e.rank)[static_cast<size_t>(e.idx)], ix.by_cols,
                  false);
    };
    for (size_t t = 0; t < nslabs; ++t) {
      const auto b = ix.entries.begin() + static_cast<std::ptrdiff_t>(ix.first[t]);
      const auto e =
          ix.entries.begin() + static_cast<std::ptrdiff_t>(ix.first[t + 1]);
      std::sort(b, e, [&](RectRef x, RectRef y) {
        return across(x).lo < across(y).lo;
      });
      for (auto it = b; it != e && it + 1 != e; ++it)
        CA_REQUIRE(across(*it).hi <= across(*(it + 1)).lo,
                   "layout rectangles of ranks %d and %d overlap", it->rank,
                   (it + 1)->rank);
    }
    return ix;
  });
}

void BlockLayout::overlapping(const Rect& q, std::vector<RectRef>& out) const {
  if (q.empty()) return;
  const OverlapIndex& ix = index();
  if (ix.bounds.size() < 2) return;
  const Range& along = axis(q, ix.by_cols, true);
  const Range& across = axis(q, ix.by_cols, false);
  auto rect = [&](RectRef e) -> const Rect& {
    return rects_of(e.rank)[static_cast<size_t>(e.idx)];
  };
  // The slab holding along.lo (or the first slab), then every slab that
  // starts before along.hi. An entry that continues a rectangle already met
  // in an earlier slab of this query is skipped.
  const auto up =
      std::upper_bound(ix.bounds.begin(), ix.bounds.end(), along.lo);
  const size_t t0 = up == ix.bounds.begin()
                        ? 0
                        : static_cast<size_t>(up - ix.bounds.begin()) - 1;
  for (size_t t = t0; t + 1 < ix.bounds.size() && ix.bounds[t] < along.hi;
       ++t) {
    const auto b = ix.entries.begin() + static_cast<std::ptrdiff_t>(ix.first[t]);
    const auto e =
        ix.entries.begin() + static_cast<std::ptrdiff_t>(ix.first[t + 1]);
    auto it = std::partition_point(b, e, [&](RectRef x) {
      return axis(rect(x), ix.by_cols, false).hi <= across.lo;
    });
    for (; it != e && axis(rect(*it), ix.by_cols, false).lo < across.hi; ++it)
      if (t == t0 || axis(rect(*it), ix.by_cols, true).lo == ix.bounds[t])
        out.push_back(*it);
  }
}

i64 BlockLayout::local_size(int rank) const {
  i64 s = 0;
  for (const Rect& r : rects_of(rank)) s += r.size();
  return s;
}

i64 BlockLayout::local_offset(int rank, size_t rect_idx, i64 i, i64 j) const {
  const auto& rs = rects_of(rank);
  CA_ASSERT(rect_idx < rs.size());
  i64 off = 0;
  for (size_t t = 0; t < rect_idx; ++t) off += rs[t].size();
  const Rect& r = rs[rect_idx];
  CA_ASSERT(r.r.contains(i) && r.c.contains(j));
  return off + (i - r.r.lo) * r.c.size() + (j - r.c.lo);
}

bool BlockLayout::covers_exactly() const {
  std::vector<int> cnt(static_cast<size_t>(rows_ * cols_), 0);
  for (int rank = 0; rank < nranks(); ++rank)
    for (const Rect& r : rects_of(rank))
      for (i64 i = r.r.lo; i < r.r.hi; ++i)
        for (i64 j = r.c.lo; j < r.c.hi; ++j)
          cnt[static_cast<size_t>(i * cols_ + j)]++;
  for (int v : cnt)
    if (v != 1) return false;
  return true;
}

}  // namespace ca3dmm
