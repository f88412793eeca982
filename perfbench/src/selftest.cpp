// perfbench_selftest — checks the benchmark's own arithmetic: the tail
// percentile rule, span self time, the open-loop schedule with due-time
// latency, and the residual. Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_math.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-6; }

void percentile_rule() {
  using perfbench::supported_percentile;
  // p99 needs ten samples beyond it: 1000 samples support it exactly.
  check(near(supported_percentile(1000, 99.0), 99.0), "1000 samples support p99");
  check(near(supported_percentile(5000, 99.0), 99.0), "more samples keep p99");
  // 500 samples: the highest supported percentile is p98 (rank 490).
  check(near(supported_percentile(500, 99.0), 98.0), "500 samples fall back to p98");
  check(near(supported_percentile(100, 99.0), 90.0), "100 samples fall back to p90");
  // Never below the median, even with too few samples for any tail.
  check(near(supported_percentile(12, 99.0), 50.0), "12 samples report the median");
  check(near(supported_percentile(0, 99.0), 50.0), "no samples report the median");

  std::vector<double> v;
  for (int i = 1; i <= 500; ++i) v.push_back(i);  // 1..500
  const perfbench::Tail t = perfbench::tail(v, 99.0);
  check(t.count == 500, "tail keeps the sample count");
  check(near(t.percentile, 98.0), "tail reports the percentile it used");
  check(near(t.value, 490.02), "p98 of 1..500 lies just above the 490th value");
  std::size_t beyond = 0;
  for (const double x : v) beyond += x > t.value ? 1 : 0;
  check(beyond == 10, "exactly ten samples lie beyond the reported tail");
  check(near(perfbench::tail({3, 1, 2}, 99.0).value, 2.0), "three samples report the median");
  check(near(perfbench::tail({}, 99.0).value, 0.0), "an empty sample reports 0");
}

void self_time() {
  perfbench::SpanRecorder rec({"root", "a", "b", "c"});
  // Request 0: root [0,100) with children a [10,40) and b [30,60)
  // overlapping, and c [50,70) nested inside b.
  const auto root = static_cast<std::int64_t>(rec.add(0, -1, 0, 0, 100));
  rec.add(0, root, 1, 10, 40);
  const auto b = static_cast<std::int64_t>(rec.add(0, root, 2, 30, 60));
  rec.add(0, b, 3, 50, 70);  // runs past its parent: only [50,60) counts
  // Request 1: root [200,250) with child a [190,220) starting early.
  const auto root1 = static_cast<std::int64_t>(rec.add(1, -1, 0, 200, 250));
  rec.add(1, root1, 1, 190, 220);

  const std::vector<double> self = rec.self_ns_by_layer();
  // Root 0: 100 minus the union of a and b, [10,60) = 50. Root 1: 50 - 20.
  check(near(self[0], 50.0 + 30.0), "root self time subtracts the children's union");
  check(near(self[1], 30.0 + 30.0), "a leaf's self time is its whole duration");
  check(near(self[2], 30.0 - 10.0), "b loses the part its child covers inside it");
  check(near(self[3], 20.0), "c is a leaf");
  const std::vector<double> only1 =
      rec.self_ns_by_layer([](std::uint64_t request) { return request == 1; });
  check(near(only1[0], 30.0) && near(only1[2], 0.0), "the request filter keeps one request");
}

void open_loop() {
  const perfbench::Schedule s{1'000'000'000ULL, 500.0};
  check(s.due_ns(0) == 1'000'000'000ULL, "first request is due at the start");
  check(s.due_ns(1) == 1'002'000'000ULL, "500/s spaces requests 2 ms apart");
  check(s.due_ns(500) == 2'000'000'000ULL, "request 500 is due one second in");
  const perfbench::Schedule third{0, 3.0};
  check(third.due_ns(1) == 333'333'333ULL, "due times round to the nearest ns");

  // Sent on time to a free connection: latency is the service time.
  perfbench::OpenLoopTiming on_time{10'000'000, 10'000'000, 10'000'000, 11'500'000};
  check(near(on_time.latency_ms(), 1.5), "on-time latency");
  check(near(on_time.generator_late_ms(), 0.0), "an on-time send is not late");
  // Every connection busy until 14 ms: the 4 ms wait is the server's,
  // and counts in latency from the due time, not against the generator.
  perfbench::OpenLoopTiming server_busy{10'000'000, 14'000'000, 14'000'000, 15'000'000};
  check(near(server_busy.latency_ms(), 5.0), "latency runs from the due time");
  check(near(server_busy.generator_late_ms(), 0.0), "waiting for a busy server is not lateness");
  // A connection was free at the due time but the send left 3 ms later.
  perfbench::OpenLoopTiming stalled{10'000'000, 10'000'000, 13'000'000, 14'000'000};
  check(near(stalled.latency_ms(), 4.0), "a generator stall still counts in latency");
  check(near(stalled.generator_late_ms(), 3.0), "the generator was 3 ms late");
}

void residual() {
  const perfbench::Residual r = perfbench::residual(1000.0, {100.0, 250.0, 50.0});
  check(near(r.us, 600.0), "residual is the live mean minus the layer sum");
  check(near(r.fraction, 0.6), "residual fraction is over the live mean");
  const perfbench::Residual none = perfbench::residual(0.0, {1.0});
  check(near(none.fraction, 0.0), "no live time gives a zero fraction");
}

}  // namespace

int main() {
  percentile_rule();
  self_time();
  open_loop();
  residual();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
