// Collective operations of the simulated runtime against serial oracles:
// data results for every collective, uneven counts, splits, and nesting.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "simmpi/cluster.hpp"
#include "simmpi/comm.hpp"

namespace ca3dmm::simmpi {
namespace {

TEST(Collectives, Bcast) {
  Cluster cl(7, Machine::unit_test());
  cl.run([](Comm& c) {
    std::vector<double> buf(5, 0.0);
    if (c.rank() == 3)
      for (int i = 0; i < 5; ++i) buf[static_cast<size_t>(i)] = 10.0 + i;
    c.bcast(buf.data(), 5, 3);
    for (int i = 0; i < 5; ++i)
      EXPECT_DOUBLE_EQ(buf[static_cast<size_t>(i)], 10.0 + i);
  });
}

TEST(Collectives, Allgather) {
  const int P = 6;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    const double mine[2] = {static_cast<double>(c.rank()),
                            static_cast<double>(c.rank() * 10)};
    std::vector<double> all(static_cast<size_t>(2 * P));
    c.allgather(mine, 2, all.data());
    for (int r = 0; r < P; ++r) {
      EXPECT_DOUBLE_EQ(all[static_cast<size_t>(2 * r)], r);
      EXPECT_DOUBLE_EQ(all[static_cast<size_t>(2 * r + 1)], r * 10);
    }
  });
}

TEST(Collectives, AllgathervUnevenCounts) {
  const int P = 5;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    // Rank r contributes r+1 doubles valued 100*r + i.
    const int me = c.rank();
    std::vector<double> mine(static_cast<size_t>(me + 1));
    for (int i = 0; i <= me; ++i)
      mine[static_cast<size_t>(i)] = 100.0 * me + i;
    std::vector<i64> counts;
    i64 total = 0;
    for (int r = 0; r < P; ++r) {
      counts.push_back(static_cast<i64>((r + 1) * sizeof(double)));
      total += r + 1;
    }
    std::vector<double> all(static_cast<size_t>(total));
    c.allgatherv_bytes(mine.data(),
                       static_cast<i64>((me + 1) * sizeof(double)), all.data(),
                       counts);
    i64 off = 0;
    for (int r = 0; r < P; ++r)
      for (int i = 0; i <= r; ++i)
        EXPECT_DOUBLE_EQ(all[static_cast<size_t>(off++)], 100.0 * r + i);
  });
}

TEST(Collectives, ReduceScatterSum) {
  const int P = 4;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    // Segment r has r+1 elements; every rank contributes value (rank+1) to
    // every element, so each reduced element equals P(P+1)/2 = 10.
    std::vector<i64> counts;
    i64 total = 0;
    for (int r = 0; r < P; ++r) {
      counts.push_back(r + 1);
      total += r + 1;
    }
    std::vector<double> sbuf(static_cast<size_t>(total),
                             static_cast<double>(c.rank() + 1));
    std::vector<double> rbuf(static_cast<size_t>(c.rank() + 1), -1.0);
    c.reduce_scatter(sbuf.data(), rbuf.data(), counts);
    for (double v : rbuf) EXPECT_DOUBLE_EQ(v, 10.0);
  });
}

TEST(Collectives, ReduceScatterZeroCount) {
  // A rank may receive nothing (count 0) — used by idle-ish ranks.
  const int P = 3;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    std::vector<i64> counts{2, 0, 1};
    std::vector<double> sbuf{1, 2, 3};
    std::vector<double> rbuf(3, -1);
    c.reduce_scatter(sbuf.data(), rbuf.data(), counts);
    if (c.rank() == 0) {
      EXPECT_DOUBLE_EQ(rbuf[0], 3.0);
      EXPECT_DOUBLE_EQ(rbuf[1], 6.0);
    } else if (c.rank() == 2) {
      EXPECT_DOUBLE_EQ(rbuf[0], 9.0);
    }
  });
}

TEST(Collectives, AllreduceSum) {
  const int P = 9;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    std::vector<float> s{static_cast<float>(c.rank()), 1.0f};
    std::vector<float> r(2);
    c.allreduce(s.data(), r.data(), 2);
    EXPECT_FLOAT_EQ(r[0], static_cast<float>(P * (P - 1) / 2));
    EXPECT_FLOAT_EQ(r[1], static_cast<float>(P));
  });
}

TEST(Collectives, Alltoallv) {
  const int P = 4;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    // Rank r sends one double (value 100*r + d) to every rank d.
    const int me = c.rank();
    std::vector<double> sbuf(static_cast<size_t>(P));
    std::vector<i64> scounts(static_cast<size_t>(P)), sdispls(static_cast<size_t>(P));
    std::vector<i64> rcounts(static_cast<size_t>(P)), rdispls(static_cast<size_t>(P));
    for (int d = 0; d < P; ++d) {
      sbuf[static_cast<size_t>(d)] = 100.0 * me + d;
      scounts[static_cast<size_t>(d)] = sizeof(double);
      sdispls[static_cast<size_t>(d)] = static_cast<i64>(d * sizeof(double));
      rcounts[static_cast<size_t>(d)] = sizeof(double);
      rdispls[static_cast<size_t>(d)] = static_cast<i64>(d * sizeof(double));
    }
    std::vector<double> rbuf(static_cast<size_t>(P), -1);
    c.alltoallv_bytes(sbuf.data(), scounts, sdispls, rbuf.data(), rcounts,
                      rdispls);
    for (int s = 0; s < P; ++s)
      EXPECT_DOUBLE_EQ(rbuf[static_cast<size_t>(s)], 100.0 * s + me);
  });
}

/// Runs `body` and returns the error Cluster::run raised ("" if none).
std::string run_error(Cluster& cl, const std::function<void(Comm&)>& body) {
  try {
    cl.run(body);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(SparseAlltoallv, WrongCountRaisesBeforeDataMoves) {
  Cluster cl(3, Machine::unit_test());
  double got = -1;
  const std::string msg = run_error(cl, [&](Comm& c) {
    const double x = 1.0;
    std::vector<A2aBlock> sends, recvs;
    if (c.rank() == 0) sends.push_back({1, 8, 0});
    if (c.rank() == 1) recvs.push_back({0, 16, 0});
    double r[2] = {-1, -1};
    c.alltoallv(&x, sends, r, recvs);
    if (c.rank() == 1) got = r[0];
  });
  EXPECT_NE(msg.find("count mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("3 ranks failed"), std::string::npos) << msg;
  EXPECT_EQ(got, -1);
}

TEST(SparseAlltoallv, SendFacingZeroReceiveRaises) {
  Cluster cl(3, Machine::unit_test());
  const std::string msg = run_error(cl, [](Comm& c) {
    const double x = 1.0;
    std::vector<A2aBlock> sends;
    if (c.rank() == 2) sends.push_back({0, 8, 0});
    double r = -1;
    c.alltoallv(&x, sends, &r, {});
  });
  EXPECT_NE(msg.find("rank 2 sends 8 bytes to rank 0, which expects 0"),
            std::string::npos)
      << msg;
}

TEST(SparseAlltoallv, ReceiveWithoutMatchingSendRaises) {
  Cluster cl(3, Machine::unit_test());
  const std::string msg = run_error(cl, [](Comm& c) {
    const double x = 1.0;
    std::vector<A2aBlock> sends, recvs;
    // Rank 0 sends to rank 2, which also expects a block from rank 1.
    if (c.rank() == 0) sends.push_back({2, 8, 0});
    if (c.rank() == 2) recvs = {{0, 8, 0}, {1, 8, 8}};
    double r[2] = {-1, -1};
    c.alltoallv(&x, sends, r, recvs);
  });
  EXPECT_NE(msg.find("rank 1 sends 0 bytes to rank 2, which expects 8"),
            std::string::npos)
      << msg;
}

TEST(SparseAlltoallv, DenseAdapterMatchesSparseCallExactly) {
  // A seeded sparse exchange on two nodes, once through the dense counts
  // adapter and once as block lists: vtimes, per-rank byte accounting and
  // buffers must agree bit for bit.
  const int P = 6;
  Machine mach = Machine::phoenix_mpi();
  mach.ranks_per_node = 3;
  mach.cores_per_node = 3;
  // counts[s][d] in doubles; about half the pairs exchange nothing.
  std::vector<std::vector<i64>> counts(P, std::vector<i64>(P, 0));
  std::uint64_t z = 12345;
  for (int s = 0; s < P; ++s)
    for (int d = 0; d < P; ++d) {
      z = z * 6364136223846793005ULL + 1442695040888963407ULL;
      if ((z >> 33) % 2 == 0) counts[s][d] = static_cast<i64>(1 + (z >> 40) % 5);
    }
  auto run = [&](bool dense, std::vector<std::vector<double>>& out) {
    Cluster cl(P, mach);
    out.assign(P, {});
    cl.run([&](Comm& c) {
      const int me = c.rank();
      std::vector<i64> sc(P), sd(P), rc(P), rd(P);
      i64 so = 0, ro = 0;
      for (int j = 0; j < P; ++j) {
        sc[j] = counts[me][j] * 8;
        sd[j] = so;
        so += sc[j];
        rc[j] = counts[j][me] * 8;
        rd[j] = ro;
        ro += rc[j];
      }
      std::vector<double> sbuf(static_cast<size_t>(so / 8));
      for (size_t t = 0; t < sbuf.size(); ++t) sbuf[t] = 1000.0 * me + t;
      auto& rbuf = out[static_cast<size_t>(me)];
      rbuf.assign(static_cast<size_t>(ro / 8), -1.0);
      if (dense) {
        c.alltoallv_bytes(sbuf.data(), sc, sd, rbuf.data(), rc, rd);
      } else {
        std::vector<A2aBlock> sends, recvs;
        for (int j = 0; j < P; ++j) {
          if (sc[j] > 0) sends.push_back({j, sc[j], sd[j]});
          if (rc[j] > 0) recvs.push_back({j, rc[j], rd[j]});
        }
        c.alltoallv(sbuf.data(), sends, rbuf.data(), recvs);
      }
    });
    std::vector<RankStats> stats;
    for (int r = 0; r < P; ++r) stats.push_back(cl.stats(r));
    return stats;
  };
  std::vector<std::vector<double>> dense_out, sparse_out;
  const auto dense = run(true, dense_out);
  const auto sparse = run(false, sparse_out);
  for (int r = 0; r < P; ++r) {
    const auto& a = dense[static_cast<size_t>(r)];
    const auto& b = sparse[static_cast<size_t>(r)];
    EXPECT_EQ(a.vtime, b.vtime) << "rank " << r;
    EXPECT_GT(a.vtime, 0) << "rank " << r;
    EXPECT_EQ(a.total_bytes_sent(), b.total_bytes_sent()) << "rank " << r;
    EXPECT_EQ(a.bytes_recvd(Phase::kMisc), b.bytes_recvd(Phase::kMisc));
    EXPECT_EQ(a.total_inter_bytes(), b.total_inter_bytes()) << "rank " << r;
    EXPECT_EQ(dense_out[static_cast<size_t>(r)],
              sparse_out[static_cast<size_t>(r)]);
  }
  // And the buffers hold what was sent.
  for (int d = 0; d < P; ++d) {
    size_t pos = 0;
    for (int s = 0; s < P; ++s) {
      i64 off = 0;
      for (int j = 0; j < d; ++j) off += counts[s][j];
      for (i64 t = 0; t < counts[s][d]; ++t)
        EXPECT_EQ(sparse_out[d][pos++], 1000.0 * s + static_cast<double>(off + t));
    }
  }
}

TEST(Collectives, SplitColorsAndKeys) {
  const int P = 8;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    // Even/odd split with reversed key ordering: the even group is ordered
    // {6,4,2,0} and the odd group {7,5,3,1}.
    Comm sub = c.split(c.rank() % 2, -c.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 4);
    const int top = (c.rank() % 2 == 0) ? 6 : 7;  // world rank of sub rank 0
    EXPECT_EQ(sub.rank(), (top - c.rank()) / 2);
    // A collective on the sub-communicator only involves the subgroup.
    std::vector<double> all(4);
    const double mine = c.rank();
    sub.allgather(&mine, 1, all.data());
    for (int j = 0; j < 4; ++j)
      EXPECT_DOUBLE_EQ(all[static_cast<size_t>(j)],
                       static_cast<double>(top - 2 * j))
          << "j=" << j;
  });
}

TEST(Collectives, SplitUndefinedColor) {
  const int P = 5;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    Comm sub = c.split(c.rank() < 3 ? 0 : -1, c.rank());
    if (c.rank() < 3) {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
      EXPECT_EQ(sub.rank(), c.rank());
    } else {
      EXPECT_FALSE(sub.valid());
    }
  });
}

TEST(Collectives, NestedSplits) {
  // Split a 12-rank world into 2 groups of 6, then each into 3 pairs, and
  // run an allreduce at the innermost level.
  const int P = 12;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    Comm half = c.split(c.rank() / 6, c.rank());
    Comm pair = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(pair.size(), 2);
    double v = 1.0, r = 0.0;
    pair.allreduce(&v, &r, 1);
    EXPECT_DOUBLE_EQ(r, 2.0);
  });
}

TEST(Collectives, ConcurrentSubgroupCollectives) {
  // Different subgroups run independent collectives "simultaneously".
  const int P = 9;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    Comm g = c.split(c.rank() % 3, c.rank());
    double v = c.rank(), sum = 0;
    g.allreduce(&v, &sum, 1);
    double expect = 0;
    for (int r = c.rank() % 3; r < P; r += 3) expect += r;
    EXPECT_DOUBLE_EQ(sum, expect);
  });
}

TEST(Collectives, BarrierCompletes) {
  Cluster cl(16, Machine::unit_test());
  cl.run([](Comm& c) {
    for (int i = 0; i < 5; ++i) c.barrier();
  });
}

// ---- edge cases: empty payloads, degenerate splits, singleton groups ----

TEST(CollectivesEdge, ZeroByteBcast) {
  Cluster cl(4, Machine::unit_test());
  cl.run([](Comm& c) {
    c.bcast_bytes(nullptr, 0, 2);
    EXPECT_GE(c.last_op_cost(), 0.0);
  });
}

TEST(CollectivesEdge, ZeroByteAllgather) {
  Cluster cl(4, Machine::unit_test());
  cl.run([](Comm& c) { c.allgather_bytes(nullptr, 0, nullptr); });
}

TEST(CollectivesEdge, ZeroCountAllreduce) {
  Cluster cl(3, Machine::unit_test());
  cl.run([](Comm& c) {
    c.allreduce_sum(nullptr, nullptr, 0, Dtype::kF64);
  });
}

TEST(CollectivesEdge, AlltoallvZeroCountsForSomePeers) {
  // Rank r sends one double to rank 0 only; everyone else's exchange with r
  // is empty. Rank 0 must receive P values, the others nothing.
  const int P = 4;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    const int me = c.rank();
    const double mine = 100.0 + me;
    std::vector<i64> scounts(static_cast<size_t>(P), 0);
    std::vector<i64> sdispls(static_cast<size_t>(P), 0);
    std::vector<i64> rcounts(static_cast<size_t>(P), 0);
    std::vector<i64> rdispls(static_cast<size_t>(P), 0);
    scounts[0] = sizeof(double);
    if (me == 0)
      for (int s = 0; s < P; ++s) {
        rcounts[static_cast<size_t>(s)] = sizeof(double);
        rdispls[static_cast<size_t>(s)] = static_cast<i64>(s * sizeof(double));
      }
    std::vector<double> rbuf(static_cast<size_t>(P), -1.0);
    c.alltoallv_bytes(&mine, scounts, sdispls, rbuf.data(), rcounts, rdispls);
    if (me == 0)
      for (int s = 0; s < P; ++s)
        EXPECT_DOUBLE_EQ(rbuf[static_cast<size_t>(s)], 100.0 + s);
    else
      for (double v : rbuf) EXPECT_DOUBLE_EQ(v, -1.0);
  });
}

TEST(CollectivesEdge, SplitAllNegativeColors) {
  // Every rank passes MPI_UNDEFINED: all get an invalid communicator and
  // the world communicator stays usable.
  const int P = 5;
  Cluster cl(P, Machine::unit_test());
  cl.run([](Comm& c) {
    Comm sub = c.split(-1, c.rank());
    EXPECT_FALSE(sub.valid());
    c.barrier();
  });
}

TEST(CollectivesEdge, SingleRankCommunicatorAllCollectives) {
  // Each rank splits into its own singleton group and runs every collective
  // on it; all must complete and behave as identities.
  const int P = 3;
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& c) {
    Comm solo = c.split(c.rank(), 0);
    ASSERT_TRUE(solo.valid());
    ASSERT_EQ(solo.size(), 1);
    solo.barrier();
    double x = 7.5;
    solo.bcast(&x, 1, 0);
    EXPECT_DOUBLE_EQ(x, 7.5);
    double g = -1;
    solo.allgather(&x, 1, &g);
    EXPECT_DOUBLE_EQ(g, 7.5);
    const std::vector<i64> counts{static_cast<i64>(sizeof(double))};
    double gv = -1;
    solo.allgatherv_bytes(&x, static_cast<i64>(sizeof(double)), &gv, counts);
    EXPECT_DOUBLE_EQ(gv, 7.5);
    const std::vector<i64> rs_counts{2};
    const double sb[2] = {1.5, 2.5};
    double rb[2] = {-1, -1};
    solo.reduce_scatter(sb, rb, rs_counts);
    EXPECT_DOUBLE_EQ(rb[0], 1.5);
    EXPECT_DOUBLE_EQ(rb[1], 2.5);
    double ar = -1;
    solo.allreduce(&x, &ar, 1);
    EXPECT_DOUBLE_EQ(ar, 7.5);
    const std::vector<i64> one{static_cast<i64>(sizeof(double))};
    const std::vector<i64> zero_d{0};
    double a2a = -1;
    solo.alltoallv_bytes(&x, one, zero_d, &a2a, one, zero_d);
    EXPECT_DOUBLE_EQ(a2a, 7.5);
    Comm sub = solo.split(0, 0);
    EXPECT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 1);
  });
}

TEST(CollectivesEdge, SingleRankCluster) {
  Cluster cl(1, Machine::unit_test());
  cl.run([](Comm& c) {
    c.barrier();
    double x = 3.0, r = 0.0;
    c.allreduce(&x, &r, 1);
    EXPECT_DOUBLE_EQ(r, 3.0);
  });
}

}  // namespace
}  // namespace ca3dmm::simmpi
