// Reference Pareto fronts for the benchmark's answer checker, computed apart
// from the program: this file uses none of the pipesched library.
//
// Input (stdin), one instance per line, whitespace separated:
//   n p b  w_0 .. w_{n-1}  delta_0 .. delta_n  s_0 .. s_{p-1}
// Output (stdout), one line per instance:
//   k  P_1 L_1  ..  P_k L_k      (periods ascending, latencies descending)
//
// Every interval mapping (consecutive stage intervals, pairwise distinct
// processors, so at most p intervals) is enumerated and scored in the
// sequential communication model of the paper on a communication-homogeneous
// platform:
//   cycle(interval [a..e] on u) = delta_a/b + (w_a + .. + w_e)/s_u + delta_{e+1}/b
//   period  = max over intervals of cycle
//   latency = sum over intervals of (delta_a/b + W/s_u) + delta_n/b
// The front keeps a point unless another point is no worse on both criteria
// up to a relative 1e-9 and better beyond it on one, and collapses points
// that agree on both criteria to 1e-9 — the tolerance the answers are
// compared at.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

constexpr double kEps = 1e-9;

bool nearlyEqual(double a, double b) {
  return std::abs(a - b) <= kEps * std::max({1.0, std::abs(a), std::abs(b)});
}

bool definitelyLess(double a, double b) { return a < b && !nearlyEqual(a, b); }

struct Point {
  double period;
  double latency;
};

bool dominates(const Point& a, const Point& b) {
  const bool noWorse = (a.period <= b.period || nearlyEqual(a.period, b.period)) &&
                       (a.latency <= b.latency || nearlyEqual(a.latency, b.latency));
  return noWorse &&
         (definitelyLess(a.period, b.period) || definitelyLess(a.latency, b.latency));
}

struct Instance {
  std::vector<double> work, comm, speeds;
  double bandwidth = 1;
};

class Enumerator {
 public:
  explicit Enumerator(const Instance& in)
      : in_(in), n_(in.work.size()), p_(in.speeds.size()), used_(p_, false) {}

  std::vector<Point> run() {
    recurse(0, 0, 0.0, 0.0);
    return std::move(points_);
  }

 private:
  void recurse(std::size_t start, std::size_t intervals, double period, double latency) {
    double work = 0;
    for (std::size_t end = start; end < n_; ++end) {
      work += in_.work[end];
      const bool last = end + 1 == n_;
      // Another interval must follow unless this one closes the pipeline,
      // and each interval needs a processor of its own.
      if (!last && intervals + 1 >= p_) continue;
      const double in = in_.comm[start] / in_.bandwidth;
      const double out = in_.comm[end + 1] / in_.bandwidth;
      for (std::size_t u = 0; u < p_; ++u) {
        if (used_[u]) continue;
        const double compute = work / in_.speeds[u];
        const double cycle = in + compute + out;
        const double p = std::max(period, cycle);
        const double l = latency + in + compute;
        if (last) {
          points_.push_back({p, l + out});
        } else {
          used_[u] = true;
          recurse(end + 1, intervals + 1, p, l);
          used_[u] = false;
        }
      }
    }
  }

  const Instance& in_;
  std::size_t n_;
  std::size_t p_;
  std::vector<bool> used_;
  std::vector<Point> points_;
};

std::vector<Point> paretoFront(std::vector<Point> points) {
  std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
    return a.period < b.period || (a.period == b.period && a.latency < b.latency);
  });
  // A point whose latency is no better than an earlier (no larger period)
  // point's is dominated or a duplicate; this sweep leaves a short list the
  // quadratic tolerant pass below can afford.
  std::vector<Point> candidates;
  double best = INFINITY;
  for (const Point& p : points) {
    if (p.latency < best) {
      candidates.push_back(p);
      best = p.latency;
    }
  }
  std::vector<Point> front;
  for (const Point& p : candidates) {
    bool keep = true;
    for (const Point& q : front) {
      if (dominates(q, p) || (nearlyEqual(q.period, p.period) && nearlyEqual(q.latency, p.latency))) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    std::erase_if(front, [&](const Point& q) { return dominates(p, q); });
    front.push_back(p);
  }
  std::sort(front.begin(), front.end(),
            [](const Point& a, const Point& b) { return a.period < b.period; });
  return front;
}

bool readInstance(const std::string& line, Instance& out) {
  std::istringstream in(line);
  std::size_t n = 0;
  std::size_t p = 0;
  if (!(in >> n >> p >> out.bandwidth) || n == 0 || p == 0 || !(out.bandwidth > 0)) return false;
  out.work.assign(n, 0);
  out.comm.assign(n + 1, 0);
  out.speeds.assign(p, 0);
  for (double& w : out.work) in >> w;
  for (double& c : out.comm) in >> c;
  for (double& s : out.speeds) in >> s;
  return static_cast<bool>(in);
}

}  // namespace

int main() {
  std::ios::sync_with_stdio(false);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(std::cin, line)) {
    ++lineNo;
    Instance instance;
    if (!readInstance(line, instance)) {
      std::fprintf(stderr, "oracle: malformed instance on line %zu\n", lineNo);
      return 1;
    }
    const std::vector<Point> front = paretoFront(Enumerator(instance).run());
    std::printf("%zu", front.size());
    for (const Point& p : front) std::printf(" %.17g %.17g", p.period, p.latency);
    std::printf("\n");
  }
  return 0;
}
