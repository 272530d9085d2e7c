// Shared declarations of the end-to-end benchmark: workload shapes, the
// outcome a run reports, sample statistics and the in-memory span recorder.

#ifndef S2BENCH_BENCH_H_
#define S2BENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace s2bench {

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> sample, double q);
inline double Median(std::vector<double> sample) {
  return Quantile(std::move(sample), 0.5);
}

/// One operation of a client round.
enum class Op { kSimilar, kApprox, kDtw, kPeriods, kBursts, kQueryByBurst, kAppend };

/// A named traffic shape. Every run of a workload is a fixed number of
/// cycles; in each, it repeats whole rounds of the same operations until
/// the cycle's share of the time is up and runs its share of the fixed
/// phases described in README.md.
struct Workload {
  const char* name;
  size_t series;
  size_t days;
  size_t shards;
  size_t workers;  ///< Scheduler threads.
  size_t clients;  ///< Closed-loop clients, one request outstanding each.
  double zipf;     ///< Id skew exponent; 0 draws ids uniformly.
  std::vector<Op> round;
  size_t checkpoint_every;  ///< Synchronous Checkpoint() every N appends.
  /// Appends made outside the read rounds, a share in each cycle, so that
  /// every end-to-end metric has samples on every workload.
  size_t coverage_appends;
};

/// The workload of that name, or null.
const Workload* FindWorkload(const std::string& name);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< Output checks that failed.
  std::vector<Metric> metrics;
};

/// Runs one workload end to end. `trace` selects the per-layer run.
Outcome RunWorkload(const Workload& workload, uint64_t seed, double seconds,
                    bool trace);

/// A timed interval at a layer boundary. Spans of one request share
/// `request`; `parent` is the index of the enclosing span or -1.
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// Keeps spans in memory; `Write` dumps them as JSON lines at exit.
class Tracer {
 public:
  int64_t Add(std::string name, Clock::time_point start, Clock::time_point end,
              int64_t parent, uint64_t request);
  /// Sets the end of a span opened with end == start.
  void Close(int64_t span, Clock::time_point end);
  size_t size() const;
  /// Each span's self time in us: its duration minus the union of its
  /// children's intervals.
  std::vector<double> SelfTimes() const;
  /// One JSON line per span, with its self time.
  bool Write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace s2bench

#endif  // S2BENCH_BENCH_H_
