#include "costmodel/model.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "baselines/p25d.hpp"
#include "layout/redistribute.hpp"
#include "linalg/gemm.hpp"
#include "resilience/abft.hpp"
#include "simmpi/coll_cost.hpp"

namespace ca3dmm::costmodel {

using simmpi::GroupProfile;
using simmpi::LinkParams;
using simmpi::Machine;
using simmpi::Phase;
using simmpi::Topology;

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kCa3dmm: return "CA3DMM";
    case Algo::kCa3dmmSumma: return "CA3DMM-S";
    case Algo::kCosma: return "COSMA";
    case Algo::kCarma: return "CARMA";
    case Algo::kCtf: return "CTF";
    case Algo::kSumma: return "SUMMA";
    case Algo::kP25d: return "2.5D";
  }
  return "?";
}

namespace {

constexpr int kPhases = static_cast<int>(Phase::kCount);

/// Per-rank dry-run accumulator mirroring RankCtx + TrackedBuffer.
struct RankSim {
  double clock = 0;
  double phase[kPhases] = {};
  double inter[kPhases] = {};
  Phase cur = Phase::kMisc;
  i64 cur_bytes = 0;
  i64 peak_bytes = 0;
  double flops = 0;

  void charge(double s) {
    clock += s;
    phase[static_cast<int>(cur)] += s;
  }
  /// Charges a schedule-aware collective: virtual time plus this rank's 1/p
  /// share of the group's aggregate inter-node bytes (the engine's
  /// RankStats convention, so summing over ranks recovers the aggregate).
  void charge_coll(const simmpi::CollCost& c, int p) {
    charge(c.t);
    inter[static_cast<int>(cur)] += c.inter_bytes / p;
  }
  void alloc(i64 b) {
    cur_bytes += b;
    peak_bytes = std::max(peak_bytes, cur_bytes);
  }
  void free(i64 b) { cur_bytes -= b; }
  /// GEMM with dual-buffer overlap against `budget` seconds of comm (the
  /// GPU prototype does not pipeline, and CPU overlap is partial — mirrors
  /// the engine).
  void compute(const Machine& mach, double f, double bytes, double budget) {
    budget = mach.use_gpu ? 0.0 : budget * mach.overlap_efficiency;
    const double t = mach.gemm_time(f, bytes);
    flops += f;
    phase[static_cast<int>(Phase::kCompute)] += t;
    clock += std::max(0.0, t - budget);
  }
};

LinkParams link_of(const Machine& mach, const std::vector<int>& ranks) {
  return group_link(mach, GroupProfile::from_world_ranks(mach, ranks));
}

/// Profile + link of a group, kept together where the schedule-aware cost
/// functions need the composition (hierarchical schedules, inter-node byte
/// accounting), not just the mixed link parameters.
struct GroupInfo {
  GroupProfile prof;
  LinkParams link;
};

/// Topology-aware: exact node multiset, per-cluster parts,
/// inter-cluster link — what the engine's CommState::create builds, so the
/// schedule-aware costs below price exactly what the engine charges.
GroupInfo info_of(const Topology& topo, const std::vector<int>& ranks) {
  GroupInfo gi;
  gi.prof = GroupProfile::from_topology(topo, ranks);
  gi.link = group_link(topo.machine(), gi.prof);
  return gi;
}

GroupInfo info_range(const Topology& topo, int lo, int count) {
  std::vector<int> r(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) r[static_cast<size_t>(i)] = lo + i;
  return info_of(topo, r);
}

LinkParams link_range(const Machine& mach, int lo, int count) {
  std::vector<int> r(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) r[static_cast<size_t>(i)] = lo + i;
  return link_of(mach, r);
}

bool same_node(const Machine& mach, int a, int b) {
  return mach.node_of_rank(a) == mach.node_of_rank(b);
}

/// The engine's sendrecv exchange of `bytes` between rank r and its two ring
/// peers (receive from src, send to dst): with equal entry clocks every rank
/// advances by the slower of the two channel costs. Reduces to the old
/// single t_p2p charge when both channels share a link class (homogeneous
/// contiguous groups), and prices cross-node / cross-cluster channels
/// individually otherwise.
double t_exchange(const Topology& topo, int r, int src, int dst,
                  double bytes) {
  return std::max(simmpi::t_p2p_ranks(topo, src, r, bytes),
                  simmpi::t_p2p_ranks(topo, r, dst, bytes));
}

int wrap(int v, int s) { return ((v % s) + s) % s; }

/// Folds one finished rank simulation into the prediction maxima.
void fold(Prediction& p, const RankSim& sim) {
  p.t_total = std::max(p.t_total, sim.clock);
  for (int i = 0; i < kPhases; ++i) {
    p.phase_s[i] = std::max(p.phase_s[i], sim.phase[i]);
    p.inter_bytes_s[i] += sim.inter[i];  // sum: per-rank 1/p shares
  }
  p.peak_bytes = std::max(p.peak_bytes, sim.peak_bytes);
  p.flops_per_rank = std::max(p.flops_per_rank, sim.flops);
}

/// Identity or 1-D column user layouts for the three matrices.
struct UserLayouts {
  BlockLayout a, b, c;
};

UserLayouts user_layouts(const Workload& w, int P, const BlockLayout& a_nat,
                         const BlockLayout& b_nat, const BlockLayout& c_nat) {
  if (!w.custom_layout) return UserLayouts{a_nat, b_nat, c_nat};
  return UserLayouts{BlockLayout::col_1d(w.m, w.k, P),
                     BlockLayout::col_1d(w.k, w.n, P),
                     BlockLayout::col_1d(w.m, w.n, P)};
}

struct RedistCost {
  double t = 0;
  RedistVolume vol;
};

RedistCost redist_cost(const Machine& mach, const LinkParams& world_link,
                       int P, const BlockLayout& src, const BlockLayout& dst) {
  RedistCost rc;
  rc.vol = redistribution_volume(src, dst, false, 8);
  const double mx = static_cast<double>(
      std::max(rc.vol.max_send_bytes, rc.vol.max_recv_bytes));
  const bool single_node = P <= mach.ranks_per_node;
  rc.t = t_alltoallv_machine(mach, world_link, mx, P, single_node);
  return rc;
}

/// Topology-aware variant: anchor machine + the world group's exact profile
/// (mirrors the engine's alltoallv cost call on the world communicator).
RedistCost redist_cost(const Topology& topo, const GroupInfo& world, int P,
                       const BlockLayout& src, const BlockLayout& dst) {
  RedistCost rc;
  rc.vol = redistribution_volume(src, dst, false, 8);
  const double mx = static_cast<double>(
      std::max(rc.vol.max_send_bytes, rc.vol.max_recv_bytes));
  rc.t = t_alltoallv_machine(topo.machine(), world.link, mx, P,
                             world.prof.single_node);
  return rc;
}

/// Runs the staging-buffer + alltoallv pattern of redistribute<T>().
void sim_redistribute(RankSim& sim, const RedistCost& rc, int r) {
  sim.alloc(rc.vol.send_staging_bytes[static_cast<size_t>(r)]);
  sim.alloc(rc.vol.recv_staging_bytes[static_cast<size_t>(r)]);
  sim.charge(rc.t);
  sim.free(rc.vol.send_staging_bytes[static_cast<size_t>(r)]);
  sim.free(rc.vol.recv_staging_bytes[static_cast<size_t>(r)]);
}

double split_cost(const LinkParams& l, int p) {
  return t_allgather(l, 8.0 * p, p);
}

// ------------------------------------------------------------------
// CA3DMM
// ------------------------------------------------------------------

Prediction predict_ca3dmm(const Workload& w, int P, const Topology& topo,
                          bool use_summa) {
  // The anchor machine: what the engine passes to every coll_*_cost call
  // (cluster 0 of the topology). Per-rank compute rates come from
  // topo.machine_of_rank below, exactly like Comm::my_machine().
  const Machine& mach = topo.machine();
  Ca3dmmOptions opt;
  opt.force_grid = w.force_grid;
  opt.min_kblk = w.min_kblk;
  opt.use_summa = use_summa;
  opt.abft = w.abft;
  opt.k_weights = w.k_weights;
  const Ca3dmmPlan plan = Ca3dmmPlan::make(w.m, w.n, w.k, P, opt);
  const int s = plan.s(), c = plan.c(), pk = plan.grid().pk;
  const int active = plan.active();
  const i64 esize = w.esize;

  const BlockLayout& a_nat = plan.a_native();
  const BlockLayout& b_nat = plan.b_native();
  const BlockLayout& c_nat = plan.c_native();
  const UserLayouts ul = user_layouts(w, P, a_nat, b_nat, c_nat);

  const GroupInfo world_info = info_range(topo, 0, P);
  const GroupInfo active_info = info_range(topo, 0, active);
  const LinkParams& world_link = world_info.link;
  const RedistCost rA = redist_cost(topo, world_info, P, ul.a, a_nat);
  const RedistCost rB = redist_cost(topo, world_info, P, ul.b, b_nat);
  const RedistCost rC = redist_cost(topo, world_info, P, c_nat, ul.c);
  // Warm engine path: the four PlanComms splits are cached, so their
  // latency vanishes from the prediction (the SUMMA row/col splits below
  // are per-call in the executable too and keep charging).
  const double t_split_world =
      w.warm_comms ? 0.0 : split_cost(world_link, P);
  const double t_split_active =
      w.warm_comms ? 0.0 : split_cost(active_info.link, active);

  // Pre-compute group links (shared by all members of a group). The repl
  // and reduce groups keep their GroupProfile: the schedule-aware costs
  // need the node composition, not just the mixed link.
  std::map<int, GroupInfo> repl_infos, reduce_infos;
  std::map<int, LinkParams> cannon_links, row_links, col_links;
  for (int r = 0; r < active; ++r) {
    const RankCoord co = plan.coord(r);
    if (c > 1) {
      const int key = (co.gk * s + co.j) * s + co.i;
      if (!repl_infos.count(key)) {
        std::vector<int> mem;
        for (int g = 0; g < c; ++g) mem.push_back(plan.rank_of(co.gk, g, co.i, co.j));
        repl_infos[key] = info_of(topo, mem);
      }
    }
    if (pk > 1) {
      const int key = (co.gc * s + co.j) * s + co.i;
      if (!reduce_infos.count(key)) {
        std::vector<int> mem;
        for (int g = 0; g < pk; ++g) mem.push_back(plan.rank_of(g, co.gc, co.i, co.j));
        reduce_infos[key] = info_of(topo, mem);
      }
    }
    const int ckey = co.gk * c + co.gc;
    if (!cannon_links.count(ckey))
      cannon_links[ckey] =
          info_range(topo, plan.rank_of(co.gk, co.gc, 0, 0), s * s).link;
    if (use_summa) {
      const int rkey = (co.gk * c + co.gc) * s + co.i;  // row: fixed i
      if (!row_links.count(rkey)) {
        std::vector<int> mem;
        for (int j = 0; j < s; ++j) mem.push_back(plan.rank_of(co.gk, co.gc, co.i, j));
        row_links[rkey] = info_of(topo, mem).link;
      }
      const int lkey = (co.gk * c + co.gc) * s + co.j;  // col: fixed j
      if (!col_links.count(lkey)) {
        std::vector<int> mem;
        for (int i = 0; i < s; ++i) mem.push_back(plan.rank_of(co.gk, co.gc, i, co.j));
        col_links[lkey] = info_of(topo, mem).link;
      }
    }
  }

  Prediction p;
  p.grid = plan.grid();
  p.active = active;
  double lb_max = 0, lb_sum = 0;
  int lb_n = 0;

  for (int r = 0; r < P; ++r) {
    RankSim sim;
    const RankCoord co = plan.coord(r);
    // Per-rank machine: compute (and local memory scans) are priced at the
    // rank's own cluster rate; collective formulas keep the anchor machine,
    // mirroring the engine's anchor convention.
    const Machine& rm = topo.machine_of_rank(r);

    // ---- redistribution of A and B (all ranks) ----
    sim.cur = Phase::kRedistribute;
    const i64 a_init_bytes = a_nat.local_size(r) * esize;
    const i64 b_init_bytes = b_nat.local_size(r) * esize;
    // Engine order: both init buffers are constructed before the first
    // redistribution runs.
    sim.alloc(a_init_bytes);
    sim.alloc(b_init_bytes);
    sim_redistribute(sim, rA, r);
    sim_redistribute(sim, rB, r);

    sim.cur = Phase::kMisc;
    sim.charge(t_split_world);

    i64 a_live = a_init_bytes, b_live = b_init_bytes;
    i64 c_result_bytes = 0;
    if (co.active) {
      const i64 mb = plan.m_range(co.I).size();
      const i64 nb = plan.n_range(co.J).size();
      std::vector<i64> kparts(static_cast<size_t>(s));
      i64 kb_max = 0, kb_total = 0;
      for (int t = 0; t < s; ++t) {
        kparts[static_cast<size_t>(t)] = plan.kpart(co.gk, t).size();
        kb_max = std::max(kb_max, kparts[static_cast<size_t>(t)]);
        kb_total += kparts[static_cast<size_t>(t)];
      }
      sim.charge(t_split_active);  // cannon split

      // ---- replication ----
      if (c > 1) {
        sim.charge(t_split_active);  // repl split
        sim.cur = Phase::kReplicate;
        const GroupInfo& rg = repl_infos[(co.gk * s + co.j) * s + co.i];
        auto ag_cost = [&](i64 blk) {
          const double bytes = static_cast<double>(blk);
          const simmpi::CollAlgo alg = resolve_coll_algo(
              w.coll.allgather, rg.prof, bytes, w.coll.small_message_bytes);
          return coll_allgather_cost(mach, rg.prof, rg.link, alg, bytes, c);
        };
        if (plan.replicates_a()) {
          const i64 blk = plan.kpart(co.gk, co.j).size() * mb * esize;
          sim.alloc(blk);  // gathered
          sim.alloc(blk);  // a_blk
          sim.charge_coll(ag_cost(blk), c);
          sim.free(a_live);  // a_init released
          a_live = blk;
          sim.free(blk);  // gathered (scope end)
        } else {
          const i64 blk = plan.kpart(co.gk, co.i).size() * nb * esize;
          sim.alloc(blk);  // b_blk
          sim.charge_coll(ag_cost(blk), c);
          sim.free(b_live);
          b_live = blk;
        }
        sim.cur = Phase::kMisc;
      }

      // ---- 2-D engine ----
      const i64 c_partial_bytes = mb * nb * esize;
      sim.alloc(c_partial_bytes);
      auto kpart_of = [&](int t) {
        return kparts[static_cast<size_t>(wrap(t, s))];
      };
      if (s == 1) {
        sim.compute(rm, gemm_flops(mb, nb, kpart_of(0)),
                    gemm_bytes(mb, nb, kpart_of(0), esize), 0.0);
        sim.free(a_live);
        sim.free(b_live);
        a_live = b_live = 0;
      } else if (!use_summa) {
        // Cannon: current buffers, skew, source release, dual buffers, then
        // s steps with aggregation (mirrors engine allocation order).
        // ABFT (when on) enlarges every message by its checksum trailer and
        // adds one encode scan before each send plus one decode scan after
        // each receive, at exactly the engine's program points.
        auto tre = [&](i64 payload_elems) {
          return w.abft
                     ? resilience::abft_trailer_elems(payload_elems, esize)
                     : static_cast<i64>(0);
        };
        auto scan_t = [&](i64 payload_elems) {
          return static_cast<double>(payload_elems * esize) /
                 rm.intra_rank_bandwidth();
        };
        const i64 bufs = 2 * (mb * kb_max + tre(mb * kb_max)) * esize +
                         2 * (kb_max * nb + tre(kb_max * nb)) * esize;
        sim.alloc(bufs / 2);
        sim.cur = Phase::kShift;
        {
          // Skew A: recv from (i, j+i); B: recv from (i+j, j). With ABFT the
          // outgoing message is staged (the input block is const), encoded,
          // and decoded on arrival.
          const int srcA = plan.rank_of(co.gk, co.gc, co.i, wrap(co.j + co.i, s));
          const int dstA = plan.rank_of(co.gk, co.gc, co.i, wrap(co.j - co.i, s));
          const i64 paS = kpart_of(co.j) * mb;
          const i64 paR = kpart_of(co.j + co.i) * mb;
          const i64 bA = std::max(paS, paR);
          if (w.abft) {
            sim.alloc((paS + tre(paS)) * esize);  // staging
            sim.charge(scan_t(paS));              // encode
          }
          sim.charge(t_exchange(topo, r, srcA, dstA,
                                static_cast<double>((bA + tre(bA)) * esize)));
          if (w.abft) {
            sim.charge(scan_t(paR));              // decode
            sim.free((paS + tre(paS)) * esize);
          }
          const int srcB = plan.rank_of(co.gk, co.gc, wrap(co.i + co.j, s), co.j);
          const int dstB = plan.rank_of(co.gk, co.gc, wrap(co.i - co.j, s), co.j);
          const i64 pbS = kpart_of(co.i) * nb;
          const i64 pbR = kpart_of(co.i + co.j) * nb;
          const i64 bB = std::max(pbS, pbR);
          if (w.abft) {
            sim.alloc((pbS + tre(pbS)) * esize);
            sim.charge(scan_t(pbS));
          }
          sim.charge(t_exchange(topo, r, srcB, dstB,
                                static_cast<double>((bB + tre(bB)) * esize)));
          if (w.abft) {
            sim.charge(scan_t(pbR));
            sim.free((pbS + tre(pbS)) * esize);
          }
        }
        // Engine releases the source blocks right after the skew, then
        // allocates the second buffer pair.
        sim.free(a_live);
        sim.free(b_live);
        a_live = b_live = 0;
        sim.alloc(bufs / 2);
        const bool aggregate = w.min_kblk > 0 && kb_max < w.min_kblk && s > 1;
        const i64 agg_cap =
            aggregate ? std::min(kb_total, w.min_kblk + kb_max) : 0;
        if (aggregate) sim.alloc(mb * agg_cap * esize + agg_cap * nb * esize);
        const int right = plan.rank_of(co.gk, co.gc, co.i, wrap(co.j + 1, s));
        const int left = plan.rank_of(co.gk, co.gc, co.i, wrap(co.j - 1, s));
        const int down = plan.rank_of(co.gk, co.gc, wrap(co.i + 1, s), co.j);
        const int up = plan.rank_of(co.gk, co.gc, wrap(co.i - 1, s), co.j);
        i64 agg_k = 0;
        double budget = 0;  // accumulates across shifts until the next flush
        bool c_staged = false;  // C stays resident on the device
        auto step_bytes = [&](i64 kw) {
          const double b =
              gemm_operand_bytes(mb, nb, kw, esize) +
              (c_staged ? 0.0 : gemm_result_bytes(mb, nb, esize));
          c_staged = true;
          return b;
        };
        for (int t = 0; t < s; ++t) {
          const i64 kb = kpart_of(co.i + co.j + t);
          const i64 kb_next = kpart_of(co.i + co.j + t + 1);
          if (t < s - 1) {
            sim.cur = Phase::kShift;
            const i64 mxA = std::max(kb, kb_next) * mb;
            const i64 mxB = std::max(kb, kb_next) * nb;
            const double tA = t_exchange(
                topo, r, right, left,
                static_cast<double>((mxA + tre(mxA)) * esize));
            const double tB = t_exchange(
                topo, r, down, up,
                static_cast<double>((mxB + tre(mxB)) * esize));
            if (w.abft)
              sim.charge(scan_t(kb * mb) + scan_t(kb_next * mb) +
                         scan_t(kb * nb) + scan_t(kb_next * nb));
            sim.charge(tA + tB);
            if (w.overlap) budget += tA + tB;
          }
          if (aggregate) {
            agg_k += kb;
            if (agg_k >= w.min_kblk || t == s - 1) {
              sim.compute(rm, gemm_flops(mb, nb, agg_k),
                          step_bytes(agg_k), budget);
              budget = 0;
              agg_k = 0;
            }
          } else {
            sim.compute(rm, gemm_flops(mb, nb, kb), step_bytes(kb), budget);
            budget = 0;
          }
        }
        if (aggregate) sim.free(mb * agg_cap * esize + agg_cap * nb * esize);
        sim.free(bufs);
      } else {
        // SUMMA inner engine: two splits, then panel broadcasts.
        const LinkParams& cl = cannon_links[co.gk * c + co.gc];
        sim.cur = Phase::kMisc;
        sim.charge(2.0 * split_cost(cl, s * s));
        const i64 panels = mb * kb_max * esize + kb_max * nb * esize;
        sim.alloc(panels);
        const LinkParams& rl = row_links[(co.gk * c + co.gc) * s + co.i];
        const LinkParams& ll = col_links[(co.gk * c + co.gc) * s + co.j];
        bool c_staged = false;
        auto step_bytes = [&](i64 kw) {
          const double b =
              gemm_operand_bytes(mb, nb, kw, esize) +
              (c_staged ? 0.0 : gemm_result_bytes(mb, nb, esize));
          c_staged = true;
          return b;
        };
        for (int t = 0; t < s; ++t) {
          const i64 kb = kparts[static_cast<size_t>(t)];
          sim.cur = Phase::kShift;
          const double tA =
              t_broadcast(rl, static_cast<double>(mb * kb * esize), s);
          const double tB =
              t_broadcast(ll, static_cast<double>(kb * nb * esize), s);
          sim.charge(tA + tB);
          sim.compute(rm, gemm_flops(mb, nb, kb), step_bytes(kb),
                      w.overlap ? tA + tB : 0.0);
        }
        sim.free(panels);
      }
      sim.free(a_live);
      a_live = 0;
      sim.free(b_live);
      b_live = 0;

      // ---- reduce-scatter ----
      if (pk > 1) {
        sim.cur = Phase::kMisc;
        sim.charge(t_split_active);  // reduce split
        sim.cur = Phase::kReduce;
        const GroupInfo& rg = reduce_infos[(co.gc * s + co.j) * s + co.i];
        sim.alloc(c_partial_bytes);  // packed
        sim.free(c_partial_bytes);   // c_partial released after packing
        c_result_bytes = mb * plan.c_sub_cols(co.J, co.gk).size() * esize;
        sim.alloc(c_result_bytes);
        const double rs_bytes = static_cast<double>(c_partial_bytes);
        const simmpi::CollAlgo alg = resolve_coll_algo(
            w.coll.reduce_scatter, rg.prof, rs_bytes,
            w.coll.small_message_bytes);
        sim.charge_coll(coll_reduce_scatter_cost(mach, rg.prof, rg.link, alg,
                                                 rs_bytes, pk,
                                                 /*custom_tree=*/false),
                        pk);
        sim.free(c_partial_bytes);  // packed
      } else {
        c_result_bytes = c_partial_bytes;  // moved, stays allocated
      }
    } else {
      sim.free(a_live);
      sim.free(b_live);
      a_live = b_live = 0;
    }

    // ---- redistribution of C (all ranks) ----
    sim.cur = Phase::kRedistribute;
    sim_redistribute(sim, rC, r);
    sim.free(c_result_bytes);
    if (co.active && a_live) sim.free(a_live);
    if (co.active && b_live) sim.free(b_live);
    if (!co.active) {
      // idle ranks also release their (empty) init buffers
    }
    {
      // Mirrors RankStats::load_balance: max compute time over the mean of
      // ranks that computed anything.
      const double ct = sim.phase[static_cast<int>(Phase::kCompute)];
      if (ct > 0) {
        lb_max = std::max(lb_max, ct);
        lb_sum += ct;
        lb_n++;
      }
    }
    fold(p, sim);
  }
  if (lb_n > 0 && lb_sum > 0) p.load_balance = lb_max * lb_n / lb_sum;
  return p;
}

// ------------------------------------------------------------------
// COSMA-like / CARMA / CTF share one executor model
// ------------------------------------------------------------------

Prediction predict_cosma_family(const Workload& w, int P, const Machine& mach,
                                Algo algo) {
  CosmaPlan plan;
  if (algo == Algo::kCarma)
    plan = CosmaPlan::make_carma(w.m, w.n, w.k, P);
  else if (algo == Algo::kCtf)
    plan = CosmaPlan::make(w.m, w.n, w.k, P, find_grid_ctf(w.m, w.n, w.k, P));
  else
    plan = CosmaPlan::make(w.m, w.n, w.k, P, w.force_grid);
  const ProcGrid& g = plan.grid();
  const int active = plan.active();
  const i64 esize = w.esize;

  const BlockLayout& a_nat = plan.a_native();
  const BlockLayout& b_nat = plan.b_native();
  const BlockLayout& c_nat = plan.c_native();
  UserLayouts ul = user_layouts(w, P, a_nat, b_nat, c_nat);

  const LinkParams world_link = link_range(mach, 0, P);
  const LinkParams active_link = link_range(mach, 0, active);

  // CTF's internal remapping: operands are first shuffled into the
  // framework's own layout, then into the contraction layout. The temporary
  // copies live until the end of the whole multiply (engine scope).
  const bool is_ctf = algo == Algo::kCtf;
  RedistCost ctf_r1, ctf_r2;
  std::vector<i64> ctf_tmp(static_cast<size_t>(P), 0);
  if (is_ctf) {
    const BlockLayout a_cyc = BlockLayout::col_1d(w.m, w.k, P);
    const BlockLayout b_cyc = BlockLayout::col_1d(w.k, w.n, P);
    ctf_r1 = redist_cost(mach, world_link, P, ul.a, a_cyc);
    ctf_r2 = redist_cost(mach, world_link, P, ul.b, b_cyc);
    for (int r = 0; r < P; ++r)
      ctf_tmp[static_cast<size_t>(r)] =
          (a_cyc.local_size(r) + b_cyc.local_size(r)) * esize;
    ul.a = a_cyc;
    ul.b = b_cyc;
  }

  const RedistCost rA = redist_cost(mach, world_link, P, ul.a, a_nat);
  const RedistCost rB = redist_cost(mach, world_link, P, ul.b, b_nat);
  const RedistCost rC = redist_cost(mach, world_link, P, c_nat, ul.c);
  const double t_split_world = split_cost(world_link, P);
  const double t_split_active = split_cost(active_link, active);

  // Bucket group links.
  std::vector<CosmaPlan::Codes> codes(static_cast<size_t>(active));
  std::map<int, std::vector<int>> ga_groups, gb_groups, gc_groups;
  for (int r = 0; r < active; ++r) {
    codes[static_cast<size_t>(r)] = plan.codes(r);
    const auto& co = codes[static_cast<size_t>(r)];
    ga_groups[co.mi * g.pk + co.ki].push_back(r);
    gb_groups[co.ki * g.pn + co.ni].push_back(r);
    gc_groups[co.mi * g.pn + co.ni].push_back(r);
  }
  std::map<int, LinkParams> ga_links, gb_links, gc_links;
  for (const auto& [key, mem] : ga_groups) ga_links[key] = link_of(mach, mem);
  for (const auto& [key, mem] : gb_groups) gb_links[key] = link_of(mach, mem);
  for (const auto& [key, mem] : gc_groups) gc_links[key] = link_of(mach, mem);

  Prediction p;
  p.grid = g;
  p.active = active;

  for (int r = 0; r < P; ++r) {
    RankSim sim;
    sim.cur = Phase::kRedistribute;
    if (is_ctf) {
      sim.alloc(ctf_tmp[static_cast<size_t>(r)]);
      sim_redistribute(sim, ctf_r1, r);
      sim_redistribute(sim, ctf_r2, r);
    }
    const i64 a_init_bytes = a_nat.local_size(r) * esize;
    const i64 b_init_bytes = b_nat.local_size(r) * esize;
    // Engine order: both init buffers are constructed before the first
    // redistribution runs.
    sim.alloc(a_init_bytes);
    sim.alloc(b_init_bytes);
    sim_redistribute(sim, rA, r);
    sim_redistribute(sim, rB, r);
    sim.cur = Phase::kMisc;
    sim.charge(t_split_world);

    i64 c_result_bytes = 0;
    if (r < active) {
      const auto& co = codes[static_cast<size_t>(r)];
      const i64 mb = plan.m_leaf(co.mi).size();
      const i64 nb = plan.n_leaf(co.ni).size();
      const i64 kb = plan.k_leaf(co.ki).size();
      i64 a_live = a_init_bytes, b_live = b_init_bytes;
      if (g.pn > 1) {
        sim.charge(t_split_active);
        sim.cur = Phase::kReplicate;
        const i64 blk = mb * kb * esize;
        sim.alloc(blk);
        sim.charge(t_allgather(ga_links[co.mi * g.pk + co.ki],
                               static_cast<double>(blk), g.pn));
        sim.free(a_live);
        a_live = blk;
        sim.cur = Phase::kMisc;
      }
      if (g.pm > 1) {
        sim.charge(t_split_active);
        sim.cur = Phase::kReplicate;
        const i64 blk = kb * nb * esize;
        sim.alloc(blk);
        sim.charge(t_allgather(gb_links[co.ki * g.pn + co.ni],
                               static_cast<double>(blk), g.pm));
        sim.free(b_live);
        b_live = blk;
        sim.cur = Phase::kMisc;
      }
      const i64 c_partial_bytes = mb * nb * esize;
      sim.alloc(c_partial_bytes);
      // CTF mode: derated local contraction rate (see Machine).
      const double frac = is_ctf ? mach.ctf_gemm_fraction() : 1.0;
      sim.compute(mach, gemm_flops(mb, nb, kb) / frac,
                  gemm_bytes(mb, nb, kb, esize), 0.0);
      sim.free(a_live);
      sim.free(b_live);
      if (g.pk > 1) {
        sim.charge(t_split_active);
        sim.cur = Phase::kReduce;
        c_result_bytes = block_size(mb, g.pk, co.ki) * nb * esize;
        sim.alloc(c_result_bytes);
        // COSMA-family reductions use an application-level tree: no MPI
        // large-message degradation (mirrors the engine's custom_tree flag).
        sim.charge(t_reduce_scatter(gc_links[co.mi * g.pn + co.ni],
                                    static_cast<double>(c_partial_bytes),
                                    g.pk));
        sim.free(c_partial_bytes);
      } else {
        c_result_bytes = c_partial_bytes;
      }
    }
    sim.cur = Phase::kRedistribute;
    sim_redistribute(sim, rC, r);
    sim.free(c_result_bytes);
    if (is_ctf) sim.free(ctf_tmp[static_cast<size_t>(r)]);
    fold(p, sim);
  }
  return p;
}

// ------------------------------------------------------------------
// Plain SUMMA
// ------------------------------------------------------------------

Prediction predict_summa(const Workload& w, int P, const Machine& mach) {
  std::optional<std::pair<int, int>> force;
  if (w.force_grid) force = std::make_pair(w.force_grid->pm, w.force_grid->pn);
  const SummaPlan plan = SummaPlan::make(w.m, w.n, w.k, P, force);
  const int pr = plan.pr(), pc = plan.pc(), active = plan.active();
  const i64 esize = w.esize;

  const BlockLayout& a_nat = plan.a_native();
  const BlockLayout& b_nat = plan.b_native();
  const BlockLayout& c_nat = plan.c_native();
  const UserLayouts ul = user_layouts(w, P, a_nat, b_nat, c_nat);

  const LinkParams world_link = link_range(mach, 0, P);
  const LinkParams active_link = link_range(mach, 0, active);
  const RedistCost rA = redist_cost(mach, world_link, P, ul.a, a_nat);
  const RedistCost rB = redist_cost(mach, world_link, P, ul.b, b_nat);
  const RedistCost rC = redist_cost(mach, world_link, P, c_nat, ul.c);

  std::map<int, LinkParams> row_links, col_links;
  for (int gi = 0; gi < pr; ++gi)
    row_links[gi] = link_range(mach, gi * pc, pc);
  for (int gj = 0; gj < pc; ++gj) {
    std::vector<int> mem;
    for (int gi = 0; gi < pr; ++gi) mem.push_back(gi * pc + gj);
    col_links[gj] = link_of(mach, mem);
  }

  Prediction p;
  p.grid = ProcGrid{pr, pc, 1};
  p.active = active;

  for (int r = 0; r < P; ++r) {
    RankSim sim;
    sim.cur = Phase::kRedistribute;
    const i64 a_init_bytes = a_nat.local_size(r) * esize;
    const i64 b_init_bytes = b_nat.local_size(r) * esize;
    // Engine order: both init buffers are constructed before the first
    // redistribution runs.
    sim.alloc(a_init_bytes);
    sim.alloc(b_init_bytes);
    sim_redistribute(sim, rA, r);
    sim_redistribute(sim, rB, r);
    sim.cur = Phase::kMisc;
    sim.charge(split_cost(world_link, P));

    i64 c_bytes = 0;
    if (r < active) {
      const int gi = r / pc, gj = r % pc;
      const i64 mb = block_size(w.m, pr, gi);
      const i64 nb = block_size(w.n, pc, gj);
      sim.charge(2.0 * split_cost(active_link, active));  // row + col splits
      c_bytes = mb * nb * esize;
      sim.alloc(c_bytes);
      // Panel walk (same boundaries as the executor).
      i64 kb_max = 0;
      {
        i64 k0 = 0;
        while (k0 < w.k) {
          const i64 k1 =
              std::min(block_range(w.k, pc, block_of_index(w.k, pc, k0)).hi,
                       block_range(w.k, pr, block_of_index(w.k, pr, k0)).hi);
          kb_max = std::max(kb_max, k1 - k0);
          k0 = k1;
        }
      }
      sim.alloc(mb * kb_max * esize + kb_max * nb * esize);
      i64 k0 = 0;
      while (k0 < w.k) {
        const i64 k1 =
            std::min(block_range(w.k, pc, block_of_index(w.k, pc, k0)).hi,
                     block_range(w.k, pr, block_of_index(w.k, pr, k0)).hi);
        const i64 wd = k1 - k0;
        sim.cur = Phase::kShift;
        const double tA =
            t_broadcast(row_links[gi], static_cast<double>(mb * wd * esize), pc);
        const double tB =
            t_broadcast(col_links[gj], static_cast<double>(wd * nb * esize), pr);
        sim.charge(tA + tB);
        const double bytes =
            gemm_operand_bytes(mb, nb, wd, esize) +
            (k0 == 0 ? gemm_result_bytes(mb, nb, esize) : 0.0);
        sim.compute(mach, gemm_flops(mb, nb, wd), bytes, tA + tB);
        k0 = k1;
      }
      sim.free(mb * kb_max * esize + kb_max * nb * esize);
      sim.free(a_init_bytes);
      sim.free(b_init_bytes);
    } else {
      sim.free(a_init_bytes);
      sim.free(b_init_bytes);
    }
    sim.cur = Phase::kRedistribute;
    sim_redistribute(sim, rC, r);
    sim.free(c_bytes);
    fold(p, sim);
  }
  return p;
}

// ------------------------------------------------------------------
// The 2.5D algorithm (layered Cannon)
// ------------------------------------------------------------------

Prediction predict_p25d(const Workload& w, int P, const Machine& mach) {
  std::optional<std::pair<int, int>> force;
  if (w.force_grid) force = std::make_pair(w.force_grid->pm, w.force_grid->pk);
  const P25dPlan plan = P25dPlan::make(w.m, w.n, w.k, P, force);
  const int q = plan.q(), c = plan.c(), active = plan.active();
  const i64 esize = w.esize;

  const BlockLayout& a_nat = plan.a_native();
  const BlockLayout& b_nat = plan.b_native();
  const BlockLayout& c_nat = plan.c_native();
  const UserLayouts ul = user_layouts(w, P, a_nat, b_nat, c_nat);

  const LinkParams world_link = link_range(mach, 0, P);
  const LinkParams active_link = link_range(mach, 0, active);
  const RedistCost rA = redist_cost(mach, world_link, P, ul.a, a_nat);
  const RedistCost rB = redist_cost(mach, world_link, P, ul.b, b_nat);
  const RedistCost rC = redist_cost(mach, world_link, P, c_nat, ul.c);

  // Depth (layer) group links, keyed by grid position.
  std::map<int, LinkParams> depth_links;
  for (int idx = 0; idx < q * q; ++idx) {
    std::vector<int> mem;
    for (int l2 = 0; l2 < c; ++l2) mem.push_back(l2 * q * q + idx);
    depth_links[idx] = link_of(mach, mem);
  }

  Prediction p;
  p.grid = ProcGrid{q, q, c};
  p.active = active;

  auto wrp = [&](int v) { return wrap(v, q); };
  auto kpart = [&](int t) { return block_size(w.k, q, wrp(t)); };

  for (int r = 0; r < P; ++r) {
    RankSim sim;
    sim.cur = Phase::kRedistribute;
    const i64 a_init_bytes = a_nat.local_size(r) * esize;
    const i64 b_init_bytes = b_nat.local_size(r) * esize;
    sim.alloc(a_init_bytes);
    sim.alloc(b_init_bytes);
    sim_redistribute(sim, rA, r);
    sim_redistribute(sim, rB, r);
    sim.cur = Phase::kMisc;
    sim.charge(split_cost(world_link, P));

    i64 c_result_bytes = 0;
    if (r < active) {
      const int layer = r / (q * q);
      const int idx = r % (q * q);
      const int i = idx % q, j = idx / q;
      const i64 mb = block_size(w.m, q, i), nb = block_size(w.n, q, j);
      const i64 kb_max = ceil_div(w.k, q);
      sim.charge(2.0 * split_cost(active_link, active));  // grid + depth

      // Replicate layer 0's blocks down the depth dimension.
      sim.cur = Phase::kReplicate;
      const LinkParams& dl = depth_links[idx];
      sim.alloc(mb * kb_max * esize + kb_max * nb * esize);  // a_cur + b_cur
      sim.charge(t_broadcast(dl, static_cast<double>(mb * kpart(j) * esize), c));
      sim.charge(t_broadcast(dl, static_cast<double>(kpart(i) * nb * esize), c));
      sim.free(a_init_bytes);
      sim.free(b_init_bytes);

      // Alignment shifts for this layer's window of Cannon steps.
      const int off = static_cast<int>(block_start(q, c, layer));
      const int steps = static_cast<int>(block_size(q, c, layer));
      sim.alloc(mb * kb_max * esize + kb_max * nb * esize);  // a_nxt + b_nxt
      sim.cur = Phase::kShift;
      {
        const int base = layer * q * q;
        const int dstA = base + wrp(j - i - off) * q + i;
        const int srcA = base + wrp(j + i + off) * q + i;
        sim.charge(t_p2p(mach,
                         static_cast<double>(
                             std::max(kpart(j), kpart(i + j + off)) * mb * esize),
                         same_node(mach, r, srcA) && same_node(mach, r, dstA)));
        const int dstB = base + j * q + wrp(i - j - off);
        const int srcB = base + j * q + wrp(i + j + off);
        sim.charge(t_p2p(mach,
                         static_cast<double>(
                             std::max(kpart(i), kpart(i + j + off)) * nb * esize),
                         same_node(mach, r, srcB) && same_node(mach, r, dstB)));
      }

      const i64 c_partial_bytes = mb * nb * esize;
      sim.alloc(c_partial_bytes);
      const int base = layer * q * q;
      const int left = base + wrp(j - 1) * q + i;
      const int right = base + wrp(j + 1) * q + i;
      const int up = base + j * q + wrp(i - 1);
      const int down = base + j * q + wrp(i + 1);
      bool c_staged = false;
      for (int t = 0; t < steps; ++t) {
        const i64 kb = kpart(i + j + off + t);
        const i64 kb_next = kpart(i + j + off + t + 1);
        double budget = 0;
        if (t < steps - 1) {
          sim.cur = Phase::kShift;
          const double tA = t_p2p(
              mach, static_cast<double>(std::max(kb, kb_next) * mb * esize),
              same_node(mach, r, left) && same_node(mach, r, right));
          const double tB = t_p2p(
              mach, static_cast<double>(std::max(kb, kb_next) * nb * esize),
              same_node(mach, r, up) && same_node(mach, r, down));
          sim.charge(tA + tB);
          budget = tA + tB;
        }
        const double bytes =
            gemm_operand_bytes(mb, nb, kb, esize) +
            (c_staged ? 0.0 : gemm_result_bytes(mb, nb, esize));
        c_staged = true;
        sim.compute(mach, gemm_flops(mb, nb, kb), bytes, budget);
      }
      sim.free(2 * (mb * kb_max * esize + kb_max * nb * esize));

      if (c > 1) {
        sim.cur = Phase::kReduce;
        c_result_bytes = block_size(mb, c, layer) * nb * esize;
        sim.alloc(c_result_bytes);
        sim.charge(t_reduce_scatter_machine(
            mach, dl, static_cast<double>(c_partial_bytes), c));
        sim.free(c_partial_bytes);
      } else {
        c_result_bytes = c_partial_bytes;
      }
    } else {
      sim.free(a_init_bytes);
      sim.free(b_init_bytes);
    }
    sim.cur = Phase::kRedistribute;
    sim_redistribute(sim, rC, r);
    sim.free(c_result_bytes);
    fold(p, sim);
  }
  return p;
}

}  // namespace

Prediction predict(Algo algo, const Workload& w, int P, const Machine& mach) {
  return predict(algo, w, P, Topology::homogeneous(std::max(P, 1), mach));
}

Prediction predict(Algo algo, const Workload& w, int P, const Topology& topo) {
  CA_REQUIRE(P >= 1 && P <= topo.nranks(),
             "predict: P=%d outside [1, %d]", P, topo.nranks());
  switch (algo) {
    case Algo::kCa3dmm: return predict_ca3dmm(w, P, topo, false);
    case Algo::kCa3dmmSumma: return predict_ca3dmm(w, P, topo, true);
    // The baselines stay single-machine models: priced at the anchor machine,
    // exact for homogeneous topologies (the only ones they execute under).
    case Algo::kCosma:
    case Algo::kCarma:
    case Algo::kCtf: return predict_cosma_family(w, P, topo.machine(), algo);
    case Algo::kSumma: return predict_summa(w, P, topo.machine());
    case Algo::kP25d: return predict_p25d(w, P, topo.machine());
  }
  CA_ASSERT(false);
  return Prediction{};
}

}  // namespace ca3dmm::costmodel
