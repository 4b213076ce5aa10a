// Self-test of the output checks: each workload runs in a reduced-size mode,
// its check must accept the untouched output and reject the output after
// one value is corrupted. A check that cannot fail proves nothing.
#include <cstdio>
#include <string>

#include "perfbench.hpp"

namespace perfbench {
namespace {

int g_failures = 0;

/// Expects `ok` to equal `want`; prints the check's reason either way.
void expect(const char* what, bool ok, bool want, const std::string& why) {
  const bool pass = ok == want;
  std::printf("  %-44s %s%s%s\n", what, pass ? "ok" : "FAILED",
              why.empty() ? "" : "  -- ", why.c_str());
  if (!pass) ++g_failures;
}

/// Mutable address of global element (i, j); the buffers are the
/// caller's own, so dropping locate()'s const is sound.
double* entry(const BlockLayout& lay, std::vector<std::vector<double>>& bufs,
              i64 i, i64 j) {
  return const_cast<double*>(locate(lay, bufs, i, j));
}

void fig3_selftest() {
  std::printf("fig3 (reduced: 96^3 on P=96, grid 4x4x6)\n");
  Fig3Spec s;
  s.n = 96;
  s.P = 96;
  s.grid = ProcGrid{4, 4, 6};
  s.samples = 16;
  Fig3Rep r = fig3_once(s, 1, false);
  std::string why;
  expect("untouched C accepted", fig3_check(s, 1, r, &why), true, why);
  // (0, 0) is always among the sampled entries.
  *entry(r.c_layout, r.c, 0, 0) += 1e-6;
  why.clear();
  expect("corrupted C(0,0) rejected", fig3_check(s, 1, r, &why), false, why);
}

void purify_selftest() {
  std::printf("purify (reduced: n=128 on P=8)\n");
  PurifySpec s;
  s.n = 128;
  s.samples = 8;
  PurifyRep r = purify_once(s, 1, false);
  std::string why;
  expect("untouched solve accepted", purify_check(s, 1, r, &why), true, why);
  PurifyRep bad_x = r;
  *entry(bad_x.layout, bad_x.x, 3, 5) += 1e-6;
  why.clear();
  expect("corrupted X(3,5) rejected", purify_check(s, 1, bad_x, &why), false,
         why);
  *entry(r.layout, r.first_x2, 0, 0) += 1e-6;
  why.clear();
  expect("corrupted first X^2(0,0) rejected", purify_check(s, 1, r, &why),
         false, why);
}

void service_selftest() {
  std::printf("service (reduced: 8 tenants x 4 requests)\n");
  ServiceSpec s;
  s.requests_each = 4;
  ServiceRep r = service_once(s, 1, false);
  std::string why;
  expect("untouched records accepted", service_check(r, &why), true, why);
  r.report.records[3].executed_s *= 1.0 + 1e-5;
  why.clear();
  expect("corrupted executed vtime rejected", service_check(r, &why), false,
         why);
}

void model_selftest() {
  std::printf("model (reduced: square, large-K, flat at P=3072)\n");
  ModelSpec s = model_full();
  s.classes = {s.classes[0], s.classes[1], s.classes[3]};
  s.Ps = {3072};
  ModelRep r = model_once(s, 1);
  std::string why;
  expect("untouched sweep accepted", model_check(s, r, &why), true, why);
  for (ModelPoint& p : r.points)
    if (p.cls == 1 && !p.custom && p.algo == ca3dmm::costmodel::Algo::kCa3dmm)
      p.pred.grid.pk -= 1;
  why.clear();
  expect("corrupted large-K grid rejected", model_check(s, r, &why), false,
         why);
}

}  // namespace

int selftest_main() {
  fig3_selftest();
  purify_selftest();
  service_selftest();
  model_selftest();
  std::printf("selftest: %s\n", g_failures ? "FAILED" : "ok");
  return g_failures ? 1 : 0;
}

}  // namespace perfbench
