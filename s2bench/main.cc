// The repository's end-to-end benchmark.
//
//   s2bench --workload <similarity|explore|ingest> --seed <n> --seconds <s>
//           --trace <0|1>
//
// Drives service::S2Server through its public verbs, checks its answers
// against an independent oracle and prints, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when an output check fails, 2 on bad arguments.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "simd/simd.h"

namespace s2bench {

int64_t Tracer::Add(std::string name, Clock::time_point start,
                    Clock::time_point end, int64_t parent, uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Close(int64_t span, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[span].end = end;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>> covered(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) covered[s.parent].push_back({s.start, s.end});
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& children = covered[i];
    std::sort(children.begin(), children.end());
    // Union of the children's intervals, clipped to the span.
    double inside = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : children) {
      const Clock::time_point from = std::max(a, reach);
      const Clock::time_point to = std::min(b, s.end);
      if (to > from) {
        inside += UsBetween(from, to);
        reach = to;
      }
    }
    self[i] = UsBetween(s.start, s.end) - inside;
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  const std::vector<double> self = SelfTimes();
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (spans_.empty()) return static_cast<bool>(out);
  const Clock::time_point origin = spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_us\":"
        << UsBetween(origin, s.start) << ",\"end_us\":" << UsBetween(origin, s.end)
        << ",\"self_us\":" << self[i] << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace s2bench

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "s2bench: %s\nusage: s2bench --workload <similarity|explore|ingest> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  const s2bench::Workload* workload = s2bench::FindWorkload(workload_name);
  if (workload == nullptr) return Usage("unknown workload");
  if (!(seconds > 0.0)) return Usage("--seconds must be positive");

  std::printf("# simd %s, %u hardware threads\n",
              s2::simd::IsaName(s2::simd::ActiveIsa()),
              std::thread::hardware_concurrency());
  const s2bench::Outcome outcome =
      s2bench::RunWorkload(*workload, seed, seconds, trace);
  for (const std::string& error : outcome.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  for (const s2bench::Metric& m : outcome.metrics) {
    std::printf("# %-28s %16.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = outcome.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(outcome.attempted, 1)),
              static_cast<unsigned long long>(outcome.failed));
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const s2bench::Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
