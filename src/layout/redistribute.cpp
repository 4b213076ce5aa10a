#include "layout/redistribute.hpp"

#include <algorithm>
#include <cstring>
#include <tuple>

namespace ca3dmm {

namespace {

/// Local-buffer base offset of each rect of `rank` under `layout`.
std::vector<i64> rect_bases(const BlockLayout& layout, int rank) {
  const auto& rs = layout.rects_of(rank);
  std::vector<i64> base(rs.size() + 1, 0);
  for (size_t t = 0; t < rs.size(); ++t) base[t + 1] = base[t] + rs[t].size();
  return base;
}

/// Maps a destination rect into source coordinates (and, the transpose
/// being its own inverse, a source rect into destination coordinates).
Rect dst_rect_in_src(const Rect& d, bool transpose) {
  return transpose ? Rect{d.c, d.r} : d;
}

/// Calls fn(segment) for every segment `rank` sends (`sending`: peer = the
/// destination) or receives (peer = the source), in no particular order:
/// one overlap query against the other layout per rect of `rank`.
template <typename Fn>
void for_each_segment(const BlockLayout& src, const BlockLayout& dst,
                      bool transpose, int rank, bool sending, Fn&& fn) {
  std::vector<RectRef> hits;
  const BlockLayout& mine = sending ? src : dst;
  const BlockLayout& other = sending ? dst : src;
  const auto& rects = mine.rects_of(rank);
  for (size_t t = 0; t < rects.size(); ++t) {
    // The rect in the other layout's coordinates, and in source coordinates.
    const Rect q = dst_rect_in_src(rects[t], transpose);
    const Rect in_src = sending ? rects[t] : q;
    hits.clear();
    other.overlapping(q, hits);
    const int ti = static_cast<int>(t);
    for (const RectRef& h : hits) {
      const Rect& o = other.rects_of(h.rank)[static_cast<size_t>(h.idx)];
      const Rect inter =
          intersect(in_src, sending ? dst_rect_in_src(o, transpose) : o);
      if (inter.empty()) continue;
      fn(sending ? RedistSegment{h.rank, ti, h.idx, inter}
                 : RedistSegment{h.rank, h.idx, ti, inter});
    }
  }
}

/// Groups consecutive segments of one peer into one alltoallv block.
std::vector<simmpi::A2aBlock> blocks_of(const std::vector<RedistSegment>& segs,
                                        i64 esize) {
  std::vector<simmpi::A2aBlock> blocks;
  i64 displ = 0;
  for (const RedistSegment& s : segs) {
    if (blocks.empty() || blocks.back().peer != s.peer)
      blocks.push_back(simmpi::A2aBlock{s.peer, 0, displ});
    blocks.back().bytes += s.r.size() * esize;
    displ += s.r.size() * esize;
  }
  return blocks;
}

}  // namespace

std::vector<RedistSegment> redistribution_segments(const BlockLayout& src,
                                                   const BlockLayout& dst,
                                                   bool transpose, int rank,
                                                   bool sending) {
  std::vector<RedistSegment> out;
  for_each_segment(src, dst, transpose, rank, sending,
                   [&](const RedistSegment& sg) { out.push_back(sg); });
  std::sort(out.begin(), out.end(),
            [](const RedistSegment& a, const RedistSegment& b) {
              return std::tie(a.peer, a.si, a.di) <
                     std::tie(b.peer, b.si, b.di);
            });
  return out;
}

template <typename T>
void redistribute(simmpi::Comm& comm, const BlockLayout& src,
                  const T* src_local, const BlockLayout& dst, T* dst_local,
                  bool transpose) {
  const int P = comm.size();
  const int me = comm.rank();
  CA_REQUIRE(src.nranks() == P && dst.nranks() == P,
             "layouts span %d/%d ranks but communicator has %d", src.nranks(),
             dst.nranks(), P);
  if (transpose)
    CA_REQUIRE(dst.rows() == src.cols() && dst.cols() == src.rows(),
               "transpose redistribution needs swapped dimensions");
  else
    CA_REQUIRE(dst.rows() == src.rows() && dst.cols() == src.cols(),
               "redistribution needs matching dimensions");

  const i64 esize = static_cast<i64>(sizeof(T));
  const auto src_base = rect_bases(src, me);
  const auto dst_base = rect_bases(dst, me);
  const auto& my_srects = src.rects_of(me);
  const auto& my_drects = dst.rects_of(me);

  const auto sends = redistribution_segments(src, dst, transpose, me, true);
  const auto recvs = redistribution_segments(src, dst, transpose, me, false);
  const auto sblocks = blocks_of(sends, esize);
  const auto rblocks = blocks_of(recvs, esize);
  const i64 send_total =
      sblocks.empty() ? 0 : (sblocks.back().displ + sblocks.back().bytes) / esize;
  const i64 recv_total =
      rblocks.empty() ? 0 : (rblocks.back().displ + rblocks.back().bytes) / esize;

  // --- pack: row-major in source coordinates, canonical segment order ---
  // Tracked: redistribution staging is part of the per-rank memory footprint
  // the paper's Table I measures.
  simmpi::TrackedBuffer<T> sendbuf(send_total);
  simmpi::trace_marker("redistribute:pack",
                       static_cast<double>(send_total * esize));
  {
    i64 pos = 0;
    for (const RedistSegment& sg : sends) {
      const Rect& r = sg.r;
      const Rect& srect = my_srects[static_cast<size_t>(sg.si)];
      const i64 ld = srect.c.size();
      const T* base = src_local + src_base[static_cast<size_t>(sg.si)];
      for (i64 i = r.r.lo; i < r.r.hi; ++i) {
        const T* row = base + (i - srect.r.lo) * ld + (r.c.lo - srect.c.lo);
        std::memcpy(&sendbuf[static_cast<size_t>(pos)], row,
                    static_cast<size_t>(r.c.size()) * sizeof(T));
        pos += r.c.size();
      }
    }
    CA_ASSERT(pos == send_total);
  }

  simmpi::TrackedBuffer<T> recvbuf(recv_total);
  comm.alltoallv(sendbuf.data(), sblocks, recvbuf.data(), rblocks);

  // --- unpack: same canonical order; apply transpose when writing ---
  simmpi::trace_marker("redistribute:unpack",
                       static_cast<double>(recv_total * esize));
  {
    i64 pos = 0;
    for (const RedistSegment& sg : recvs) {
      const Rect& r = sg.r;
      const Rect& drect = my_drects[static_cast<size_t>(sg.di)];
      const i64 ld = drect.c.size();
      T* base = dst_local + dst_base[static_cast<size_t>(sg.di)];
      if (!transpose) {
        for (i64 i = r.r.lo; i < r.r.hi; ++i) {
          T* row = base + (i - drect.r.lo) * ld + (r.c.lo - drect.c.lo);
          std::memcpy(row, &recvbuf[static_cast<size_t>(pos)],
                      static_cast<size_t>(r.c.size()) * sizeof(T));
          pos += r.c.size();
        }
      } else {
        // Source element (i, j) lands at destination (j, i).
        for (i64 i = r.r.lo; i < r.r.hi; ++i)
          for (i64 j = r.c.lo; j < r.c.hi; ++j)
            base[(j - drect.r.lo) * ld + (i - drect.c.lo)] =
                recvbuf[static_cast<size_t>(pos++)];
      }
    }
    CA_ASSERT(pos == recv_total);
  }
}

RedistVolume redistribution_volume(const BlockLayout& src,
                                   const BlockLayout& dst, bool transpose,
                                   i64 esize) {
  const int P = src.nranks();
  RedistVolume v;
  v.send_bytes.assign(static_cast<size_t>(P), 0);
  v.recv_bytes.assign(static_cast<size_t>(P), 0);
  v.send_staging_bytes.assign(static_cast<size_t>(P), 0);
  v.recv_staging_bytes.assign(static_cast<size_t>(P), 0);
  if (!transpose && src == dst) {
    // Identity conversion: everything stays local.
    for (int r = 0; r < P; ++r) {
      v.send_staging_bytes[static_cast<size_t>(r)] = src.local_size(r) * esize;
      v.recv_staging_bytes[static_cast<size_t>(r)] = src.local_size(r) * esize;
    }
    return v;
  }
  for (int s = 0; s < P; ++s)
    for_each_segment(src, dst, transpose, s, true,
                     [&](const RedistSegment& sg) {
                       const i64 bytes = sg.r.size() * esize;
                       v.send_staging_bytes[static_cast<size_t>(s)] += bytes;
                       v.recv_staging_bytes[static_cast<size_t>(sg.peer)] +=
                           bytes;
                       if (sg.peer == s) return;  // local copies: no traffic
                       v.send_bytes[static_cast<size_t>(s)] += bytes;
                       v.recv_bytes[static_cast<size_t>(sg.peer)] += bytes;
                     });
  for (int r = 0; r < P; ++r) {
    v.max_send_bytes = std::max(v.max_send_bytes, v.send_bytes[static_cast<size_t>(r)]);
    v.max_recv_bytes = std::max(v.max_recv_bytes, v.recv_bytes[static_cast<size_t>(r)]);
  }
  return v;
}

template void redistribute<float>(simmpi::Comm&, const BlockLayout&,
                                  const float*, const BlockLayout&, float*,
                                  bool);
template void redistribute<double>(simmpi::Comm&, const BlockLayout&,
                                   const double*, const BlockLayout&, double*,
                                   bool);

}  // namespace ca3dmm
