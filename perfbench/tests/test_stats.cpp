/// \file test_stats.cpp
/// Tests of the benchmark's statistics helpers and span self-time rule.
/// Run: ctest --test-dir <build dir>   (or the perfbench_tests binary).
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "tracer.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_median() {
  CHECK(near(perfbench::median({3.0}), 3.0));
  CHECK(near(perfbench::median({5.0, 1.0, 3.0}), 3.0));
  CHECK(near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5));
  bool threw = false;
  try {
    (void)perfbench::median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_quartiles() {
  // Expected values from Python: statistics.quantiles(data, n=4).
  auto q = perfbench::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  CHECK(near(q.q1, 2.75));
  CHECK(near(q.q2, 5.5));
  CHECK(near(q.q3, 8.25));
  CHECK(near(q.relative_spread(), (8.25 - 2.75) / 5.5));
  q = perfbench::quartiles({10, 20});  // [7.5, 15.0, 22.5]
  CHECK(near(q.q1, 7.5));
  CHECK(near(q.q2, 15.0));
  CHECK(near(q.q3, 22.5));
  q = perfbench::quartiles({7, 1, 4});  // [1.0, 4.0, 7.0]
  CHECK(near(q.q1, 1.0));
  CHECK(near(q.q2, 4.0));
  CHECK(near(q.q3, 7.0));
  q = perfbench::quartiles({2.0});
  CHECK(near(q.q1, 2.0) && near(q.q3, 2.0));
  CHECK(near(q.relative_spread(), 0.0));
}

void test_percentile_beyond_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  perfbench::Tail t = perfbench::percentile(v, 99.0);
  CHECK(near(t.value, 990.0));
  CHECK(t.samples == 1000);
  CHECK(t.beyond == 10);
  CHECK(t.resolved());

  std::vector<double> few;
  for (int i = 1; i <= 999; ++i) few.push_back(i);
  t = perfbench::percentile(few, 99.0);  // rank ceil(989.01) = 990
  CHECK(near(t.value, 990.0));
  CHECK(t.beyond == 9);
  CHECK(!t.resolved());

  // Ties at the percentile do not count as beyond it.
  std::vector<double> ties(100, 1.0);
  ties.push_back(2.0);
  t = perfbench::percentile(ties, 50.0);
  CHECK(near(t.value, 1.0));
  CHECK(t.beyond == 1);

  std::vector<float> one = {4.0f};
  t = perfbench::percentile(one, 99.0);
  CHECK(near(t.value, 4.0) && t.beyond == 0 && t.samples == 1);
}

void test_self_time() {
  perfbench::Tracer tracer;
  // parent [0, 10] with children [1, 3] and [4, 8]; grandchild [5, 6].
  tracer.open_at("parent", 0.0);
  tracer.open_at("child", 1.0);
  tracer.close_at(3.0);
  tracer.open_at("child", 4.0);
  tracer.open_at("grandchild", 5.0);
  tracer.close_at(6.0);
  tracer.close_at(8.0);
  tracer.close_at(10.0);

  const auto parent = tracer.totals("parent");
  const auto child = tracer.totals("child");
  const auto grandchild = tracer.totals("grandchild");
  CHECK(parent.count == 1 && near(parent.total_s, 10.0));
  CHECK(near(parent.self_s, 10.0 - 2.0 - 4.0));
  CHECK(child.count == 2 && near(child.total_s, 6.0));
  CHECK(near(child.self_s, 6.0 - 1.0));
  CHECK(near(grandchild.self_s, 1.0));
  CHECK(tracer.totals("absent").count == 0);

  // Spans keep their parent links.
  const auto& spans = tracer.spans();
  CHECK(spans.size() == 4);
  CHECK(spans.back().parent == perfbench::Tracer::kRoot);
  CHECK(spans[0].parent == spans.back().id);  // first child -> parent

  // Library-timed work booked as a child shrinks the parent's self time.
  tracer.attribute("parent", "stage", 1.5);
  CHECK(near(tracer.totals("parent").self_s, 4.0 - 1.5));
  CHECK(near(tracer.totals("stage").total_s, 1.5));
  CHECK(near(tracer.totals("stage").self_s, 1.5));
}

void test_span_capacity() {
  perfbench::Tracer tracer(2);
  for (int i = 0; i < 5; ++i) {
    tracer.open_at("call", i);
    tracer.close_at(i + 0.5);
  }
  CHECK(tracer.spans().size() == 2);
  CHECK(tracer.dropped() == 3);
  // Totals still cover every span.
  CHECK(tracer.totals("call").count == 5);
  CHECK(near(tracer.totals("call").total_s, 2.5));
}

}  // namespace

int main() {
  test_median();
  test_quartiles();
  test_percentile_beyond_rule();
  test_self_time();
  test_span_capacity();
  if (failures != 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench stats tests passed\n");
  return 0;
}
