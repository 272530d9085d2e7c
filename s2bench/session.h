// One benchmark run: builds the server over a seeded corpus, drives it
// through its public verbs, checks its answers against the oracle and
// collects the metrics. Private to the benchmark.

#ifndef S2BENCH_SESSION_H_
#define S2BENCH_SESSION_H_

#include <sched.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "oracle.h"
#include "service/s2_server.h"

namespace s2bench {

using s2::service::QueryRequest;
using s2::service::QueryResponse;

inline constexpr size_t kK = 10;
/// Generator seed of every workload's corpus. The corpus is the fixed data
/// set of the benchmark; a run's --seed draws its requests and appends. At
/// a corpus seeded per run, the median append and k-NN costs moved by up
/// to 30% between seeds, against 10% between repeats of one seed.
inline constexpr uint64_t kCorpusSeed = 2004;
/// Fixed candidate budget of every kApproxKnn request.
inline constexpr size_t kApproxCandidates = 1024;
/// WAL records after the final checkpoint that recovery replays.
inline constexpr size_t kTailRecords = 128;
/// Records per WAL fsync group, and the segment size the WAL rotates at.
/// One fsync per 256 appends keeps the host disk's fsync latency, which
/// varies with other tenants' I/O, out of append_p99_us (fsyncs are 0.4% of
/// appends); it still counts in appends_per_s.
inline constexpr size_t kWalSyncEvery = 256;
inline constexpr uint64_t kWalRotateBytes = 64 << 10;
/// Delta-tier size that schedules a background compaction. Each compaction
/// stalls the next writer, so one append in ~32 waits for one: the stalls
/// sit well inside the top 1% and append_p99_us measures them, instead of
/// straddling the percentile as they would at one in ~64.
inline constexpr size_t kCompactionThreshold = 32;
/// Series in the fixed panel that DTW queries walk; a multiple of the
/// 15-slot family schedule and of kCycles. Every workload queries the whole
/// panel once per run, a share in each cycle, and dtw_p50_us is the median
/// of that pass.
inline constexpr size_t kDtwPanel = 60;
/// A run is kCycles cycles. Each cycle walks its share of the DTW panel,
/// runs the read rounds for --seconds / kCycles, makes its share of the
/// coverage appends and, every other cycle, shuts the server down and
/// recovers it. Every metric's samples are thus spread over the whole run,
/// and a slowdown of the host that covers less than half of it moves no
/// median far; measured phase after phase, each metric sampled its own
/// 6-25 s of the run and caught or missed such a slowdown whole.
inline constexpr size_t kCycles = 6;
/// Appends made on one CPU before the next takes over (see PinForAppend).
inline constexpr size_t kPinBlock = 16;
/// Recoveries timed per run, after every other cycle (recover_s is their
/// median).
inline constexpr size_t kRecoveries = 3;
static_assert(kDtwPanel % kCycles == 0 && kCycles % kRecoveries == 0);

class Session {
 public:
  Session(const Workload& workload, uint64_t seed, double seconds, bool trace);
  ~Session();

  Outcome Run();

 private:
  struct Sample {
    QueryRequest request;
    QueryResponse response;
  };
  /// Per-client results of one cycle's read rounds, merged after the
  /// clients join.
  struct ClientLog {
    std::array<std::vector<double>, 7> engine_us;  ///< By Op, cache misses.
    std::vector<double> query_us;                  ///< Every read.
    std::vector<double> append_us;
    std::vector<Sample> samples;
    std::vector<Sample> cache_hits;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t reads = 0;
    uint64_t appends = 0;
    // Traced run: the headline operation's latency in the untraced and the
    // traced cycles, and the server-side split of each traced request.
    std::vector<double> untraced_headline;
    std::vector<double> traced_headline;
    std::vector<double> queue_wait;
    std::vector<double> exec;
    std::vector<double> knn_queue_wait;
    std::vector<double> untraced_knn;
  };

  void MakeInputs();
  void Setup();
  void Subscribe();
  /// Cycle `c`'s share of the DTW panel, from the engine.
  void DtwPanel(size_t c);
  /// Cycle `c`'s read rounds, for --seconds / kCycles.
  void MainPhase(size_t c);
  void Client(size_t index, Clock::time_point end, bool traced, bool keep,
              ClientLog* log);
  /// Reads the server's peak resident set, then checks the answers kept so
  /// far: called once, before the first append changes the corpus.
  void CheckSamples();
  /// Cycle `c`'s share of the coverage appends.
  void CoverageAppends(size_t c);
  /// Checkpoint, a fixed WAL tail, a clean shutdown and a timed recovery.
  /// The first also checks the alert totals; the last checks the recovered
  /// server's answers against the live server's.
  void Recovery(bool first, bool last);
  void ReplayLayers();  // layers.cc
  void EmitTraceSummary();  // layers.cc
  void EmitEndToEnd();

  /// The query id of kind `op` for schedule slot `slot`; DTW queries take
  /// the next panel id instead, shared by all clients (see MakeInputs).
  uint32_t DrawId(Op op, size_t slot, std::mt19937_64& rng);
  uint32_t DrawAppendId(std::mt19937_64& rng) const;
  double NextValue(uint32_t id, std::mt19937_64& rng) const;
  QueryRequest MakeRequest(Op op, uint32_t id, std::mt19937_64& rng) const;
  /// Submits and waits; returns the response and its latency in us.
  std::pair<QueryResponse, double> Ask(const QueryRequest& request);
  /// Acknowledged append (shadow updated); latency in us, < 0 on failure.
  /// Callers take the fixed-cadence checkpoints themselves, so each WAL
  /// tail before a recovery stays exactly kTailRecords long.
  double Append(uint32_t id, double value);
  /// Binds the calling thread to one CPU, the next one every kPinBlock
  /// appends; `Unpin` restores the process's mask.
  void PinForAppend();
  void Unpin();
  void TimedCheckpoint();
  void DrainAlerts();

  /// The engine's own answer, bypassing scheduler and cache.
  QueryResponse Direct(const QueryRequest& request) const;
  std::vector<oracle::Region> BurstsOf(uint32_t id, int horizon) const;
  /// Checks a response against the oracle on the current shadow corpus
  /// (`z` its standardized rows); with `self_test`, also checks that a
  /// perturbed copy is rejected.
  void Check(const Sample& sample, const oracle::Rows& z, bool self_test);
  void Expect(bool ok, const std::string& what);
  std::vector<std::vector<double>> ShadowZ() const;

  const Workload& w_;
  const uint64_t seed_;
  const double seconds_;
  const bool trace_;
  Outcome out_;
  std::string run_dir_;

  // Inputs. `raw_`/`start_day_` are the benchmark's shadow of the corpus,
  // advanced by every acknowledged append.
  s2::ts::Corpus base_;
  std::vector<std::vector<double>> raw_;
  std::vector<int32_t> start_day_;
  struct Family {
    std::vector<uint32_t> ids;      ///< Seeded permutation of the family.
    std::vector<double> zipf_cdf;   ///< Over ranks; empty draws uniformly.
  };
  std::vector<Family> families_;
  std::vector<size_t> schedule_;      ///< Family index of each slot.
  std::vector<uint32_t> dtw_order_;   ///< The DTW panel, in this run's order.
  std::atomic<size_t> dtw_next_{0};   ///< Next panel id of a timed-phase DTW.
  std::vector<uint32_t> subscribed_;
  std::vector<std::pair<uint32_t, double>> coverage_appends_;
  /// Every acknowledged append, in order.
  std::vector<std::pair<uint32_t, double>> append_log_;
  uint64_t append_seq_ = 0;
  bool affinity_read_ = false;
  cpu_set_t all_cpus_;
  std::vector<int> cpus_;  ///< CPUs the process may run on.

  s2::core::S2Engine::Options engine_options_;
  s2::service::S2Server::Options server_options_;
  std::unique_ptr<s2::service::S2Server> server_;

  // Measurements.
  /// Resident set once the inputs exist, and its peak before the first
  /// answer check: peak_rss_mb is their difference, the server's own peak
  /// through Build and the first cycle's reads without the benchmark's
  /// inputs, shadow corpus or oracle data.
  double inputs_rss_kb_ = 0.0;
  double peak_rss_kb_ = 0.0;
  double setup_s_ = 0.0;
  std::vector<double> recover_s_;
  double main_s_ = 0.0;
  uint64_t main_reads_ = 0;
  std::array<std::vector<double>, 7> engine_us_;
  /// The coverage pass over the DTW panel (dtw_p50_us).
  std::vector<double> dtw_panel_us_;
  std::vector<double> query_us_;
  std::vector<double> append_us_;
  double append_phase_s_ = 0.0;
  uint64_t append_phase_count_ = 0;
  uint64_t appends_acked_ = 0;
  std::vector<double> checkpoint_us_;
  uint64_t alerts_acked_ = 0;
  std::vector<Sample> samples_;
  std::vector<Sample> cache_hits_;
  uint64_t cache_hits_main_ = 0;
  uint64_t cache_lookups_main_ = 0;
  std::array<std::vector<std::vector<oracle::Region>>, 2> all_bursts_;
  uint64_t all_bursts_at_ = ~0ull;

  // Traced run.
  Tracer tracer_;
  std::vector<double> untraced_headline_us_;
  std::vector<double> traced_headline_us_;
  std::vector<double> queue_wait_us_;
  std::vector<double> exec_us_;
  std::vector<double> knn_queue_wait_us_;
  std::vector<double> untraced_knn_us_;
  std::vector<double> wal_append_us_;
  std::vector<double> engine_append_us_;
  std::vector<double> knn_call_us_;
  std::vector<Metric> layers_;
};

}  // namespace s2bench

#endif  // S2BENCH_SESSION_H_
