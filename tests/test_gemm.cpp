// Blocked GEMM kernel vs the triple-loop reference, across odd shapes,
// transposes, alpha values, and accumulation; and bit for bit against a
// scalar oracle of the bit-order contract in gemm.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "common/rng.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"

namespace ca3dmm {
namespace {

template <typename T>
void fill(std::vector<T>& v, std::uint64_t seed) {
  for (size_t i = 0; i < v.size(); ++i)
    v[i] = matrix_entry<T>(seed, static_cast<i64>(i), 7);
}

using Shape = std::tuple<int, int, int, bool, bool>;

class GemmShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(GemmShapes, BlockedMatchesReference) {
  const auto [m, n, k, ta, tb] = GetParam();
  std::vector<double> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n));
  fill(a, 1);
  fill(b, 2);
  std::vector<double> c_ref(static_cast<size_t>(m * n)),
      c_blk(static_cast<size_t>(m * n));
  fill(c_ref, 3);
  c_blk = c_ref;  // same initial accumulator
  gemm_ref<double>(ta, tb, m, n, k, 1.5, a.data(), b.data(), c_ref.data());
  gemm_blocked<double>(ta, tb, m, n, k, 1.5, a.data(), b.data(), c_blk.data());
  double md = 0;
  for (size_t i = 0; i < c_ref.size(); ++i)
    md = std::max(md, std::fabs(c_ref[i] - c_blk[i]));
  EXPECT_LT(md, 1e-12 * k) << "m=" << m << " n=" << n << " k=" << k
                           << " ta=" << ta << " tb=" << tb;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmShapes,
    ::testing::Combine(::testing::Values(1, 3, 17, 64, 130),
                       ::testing::Values(1, 5, 33, 129),
                       ::testing::Values(1, 7, 64, 260),
                       ::testing::Bool(), ::testing::Bool()));

/// The bit-order contract of gemm.hpp, one scalar operation at a time. This
/// file is built with -ffp-contract=off, so the oracle never fuses either.
template <typename T>
void gemm_oracle(bool ta, bool tb, i64 m, i64 n, i64 k, T alpha, const T* a,
                 i64 lda, const T* b, i64 ldb, T* c, i64 ldc) {
  for (i64 i = 0; i < m; ++i)
    for (i64 j = 0; j < n; ++j)
      for (i64 p0 = 0; p0 < k; p0 += kGemmKBlock) {
        T acc = 0;
        for (i64 p = p0; p < std::min(k, p0 + kGemmKBlock); ++p)
          acc += (ta ? a[p * lda + i] : a[i * lda + p]) *
                 (tb ? b[j * ldb + p] : b[p * ldb + j]);
        c[i * ldc + j] += alpha * acc;
      }
}

/// gemm_blocked, and each variant this CPU can run, on strided operands
/// (every leading dimension wider than its row) equals the oracle byte for
/// byte, padding included.
template <typename T>
void expect_bit_identical(i64 m, i64 n, i64 k, bool ta, bool tb) {
  const i64 lda = (ta ? m : k) + 3, ldb = (tb ? k : n) + 5, ldc = n + 2;
  std::vector<T> a(static_cast<size_t>((ta ? k : m) * lda)),
      b(static_cast<size_t>((tb ? n : k) * ldb)),
      c0(static_cast<size_t>(m * ldc));
  fill(a, 21);
  fill(b, 22);
  fill(c0, 23);
  const T alpha = T(1.5);
  std::vector<T> c_oracle = c0;
  gemm_oracle<T>(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb,
                 c_oracle.data(), ldc);
  const auto expect_oracle = [&](const std::vector<T>& c, const char* isa) {
    EXPECT_EQ(std::memcmp(c_oracle.data(), c.data(), c.size() * sizeof(T)), 0)
        << "sizeof(T)=" << sizeof(T) << " m=" << m << " n=" << n
        << " k=" << k << " ta=" << ta << " tb=" << tb << " isa=" << isa;
  };
  std::vector<T> c = c0;
  gemm_blocked<T>(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb,
                  c.data(), ldc);
  expect_oracle(c, gemm_kernel_isa());
  for (const char* isa : {"avx512f", "avx2", "generic"}) {
    c = c0;
    if (gemm_blocked_on<T>(isa, ta, tb, m, n, k, alpha, a.data(), lda,
                           b.data(), ldb, c.data(), ldc))
      expect_oracle(c, isa);
  }
}

// m and n sit below, at and above every variant's micro-tile (4, 6 or 8 rows;
// 8 to 48 columns), plus one shape past the 128 x 512 cache blocks; k covers
// one partial, one exact and several k blocks.
using BitShape = std::tuple<std::pair<int, int>, int, bool, bool>;

class GemmBitOrder : public ::testing::TestWithParam<BitShape> {};

TEST_P(GemmBitOrder, MatchesScalarOracleBitForBit) {
  const auto [mn, k, ta, tb] = GetParam();
  expect_bit_identical<double>(mn.first, mn.second, k, ta, tb);
  expect_bit_identical<float>(mn.first, mn.second, k, ta, tb);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmBitOrder,
    ::testing::Combine(::testing::Values(std::pair{1, 1}, std::pair{3, 7},
                                         std::pair{4, 8}, std::pair{6, 16},
                                         std::pair{8, 24}, std::pair{8, 48},
                                         std::pair{9, 25}, std::pair{17, 49},
                                         std::pair{13, 97},
                                         std::pair{133, 530}),
                       ::testing::Values(1, 255, 256, 600), ::testing::Bool(),
                       ::testing::Bool()));

// Threads making their first gemm_blocked calls at once: the one-time ISA
// dispatch and the thread-local packing scratch must not race (the TSan CI
// job runs this test), and every thread gets the oracle's bits. Defined
// before every other Gemm test, so these are the process's first calls.
TEST(Gemm, ConcurrentFirstCallsAreBitIdentical) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([] {
      expect_bit_identical<double>(37, 61, 300, false, true);
      expect_bit_identical<float>(37, 61, 300, true, false);
    });
  for (std::thread& th : threads) th.join();
}

TEST(Gemm, KernelIsaIsNamed) {
  const std::string isa = gemm_kernel_isa();
  std::printf("gemm_blocked dispatches to: %s\n", isa.c_str());
  EXPECT_TRUE(isa == "avx512f" || isa == "avx2" || isa == "generic") << isa;
  double a = 2, b = 3, c = 1;
  EXPECT_TRUE(gemm_blocked_on<double>(isa.c_str(), false, false, 1, 1, 1, 1.0,
                                      &a, 1, &b, 1, &c, 1));
  EXPECT_TRUE(gemm_blocked_on<double>("generic", false, false, 1, 1, 1, 1.0,
                                      &a, 1, &b, 1, &c, 1));
  EXPECT_EQ(c, 13.0);
  EXPECT_FALSE(gemm_blocked_on<double>("sse9", false, false, 1, 1, 1, 1.0, &a,
                                       1, &b, 1, &c, 1));
  EXPECT_EQ(c, 13.0);
}

TEST(Gemm, FloatKernel) {
  const int m = 31, n = 29, k = 41;
  std::vector<float> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n));
  fill(a, 4);
  fill(b, 5);
  std::vector<float> c1(static_cast<size_t>(m * n), 0.0f),
      c2(static_cast<size_t>(m * n), 0.0f);
  gemm_ref<float>(false, false, m, n, k, 1.0f, a.data(), b.data(), c1.data());
  gemm_blocked<float>(false, false, m, n, k, 1.0f, a.data(), b.data(),
                      c2.data());
  for (size_t i = 0; i < c1.size(); ++i) ASSERT_NEAR(c1[i], c2[i], 1e-4f);
}

TEST(Gemm, ZeroDimensionsAreNoOps) {
  double a = 1, b = 1, c = 5;
  gemm_blocked<double>(false, false, 0, 1, 1, 1.0, &a, &b, &c);
  gemm_blocked<double>(false, false, 1, 1, 0, 1.0, &a, &b, &c);
  EXPECT_DOUBLE_EQ(c, 5.0);
}

TEST(Gemm, AccumulatesIntoC) {
  const int m = 8, n = 8, k = 8;
  std::vector<double> a(64, 1.0), b(64, 1.0), c(64, 10.0);
  gemm_blocked<double>(false, false, m, n, k, 1.0, a.data(), b.data(),
                       c.data());
  for (double v : c) EXPECT_DOUBLE_EQ(v, 18.0);
}

TEST(Gemm, MatrixHelper) {
  Matrix<double> a(5, 7), b(7, 3), c(5, 3), c_ref(5, 3);
  a.fill_random(11);
  b.fill_random(12);
  gemm_acc(a, b, c);
  gemm_ref<double>(false, false, 5, 3, 7, 1.0, a.data(), b.data(),
                   c_ref.data());
  EXPECT_LT(max_abs_diff(c, c_ref), 1e-13);
}

TEST(Gemm, FlopAndByteCounts) {
  EXPECT_DOUBLE_EQ(gemm_flops(10, 20, 30), 12000.0);
  EXPECT_DOUBLE_EQ(gemm_bytes(10, 20, 30, 8),
                   8.0 * (300 + 600 + 2 * 200));
}

TEST(MatrixTest, RandomFillConsistentAcrossBlocks) {
  // A block filled with global offsets matches the corresponding region of a
  // globally filled matrix — the property distributed tests rely on.
  Matrix<double> global(10, 10);
  global.fill_random(99);
  Matrix<double> block(4, 3);
  block.fill_random(99, 5, 6);
  for (i64 i = 0; i < 4; ++i)
    for (i64 j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(block(i, j), global(5 + i, 6 + j));
}

TEST(MatrixTest, CopyBlock) {
  Matrix<double> src(6, 6), dst(4, 4);
  src.fill_random(1);
  copy_block(src, 1, 2, dst, 0, 0, 3, 3);
  for (i64 i = 0; i < 3; ++i)
    for (i64 j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(dst(i, j), src(1 + i, 2 + j));
}

}  // namespace
}  // namespace ca3dmm
