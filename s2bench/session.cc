#include "session.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "querylog/corpus_generator.h"

namespace s2bench {

namespace fs = std::filesystem;
using s2::service::RequestKind;

namespace {

/// A setup step failed; the run cannot go on.
struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

constexpr Op S = Op::kSimilar, X = Op::kApprox, D = Op::kDtw,
             P = Op::kPeriods, B = Op::kBursts, Q = Op::kQueryByBurst,
             A = Op::kAppend;

std::vector<Op> Repeat(const std::vector<Op>& ops, size_t times) {
  std::vector<Op> out;
  for (size_t i = 0; i < times; ++i) out.insert(out.end(), ops.begin(), ops.end());
  return out;
}

std::vector<Op> Mix(std::initializer_list<std::pair<Op, size_t>> shares) {
  std::vector<Op> out;
  for (const auto& [op, n] : shares) out.insert(out.end(), n, op);
  return out;
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"similarity", 1u << 15, 256, 4, 1, 1, 0.0, Repeat({S, X, X}, 4),
       /*checkpoint_every=*/500, /*coverage_appends=*/1800},
      {"explore", 4096, 1024, 1, 4, 1, 0.7,
       Mix({{S, 60}, {X, 32}, {P, 12}, {B, 12}, {Q, 80}, {D, 1}}),
       /*checkpoint_every=*/400, /*coverage_appends=*/1200},
      {"ingest", 4096, 512, 1, 1, 1, 0.0, Mix({{A, 8}, {S, 4}, {X, 8}}),
       /*checkpoint_every=*/512, /*coverage_appends=*/0},
  };
  return workloads;
}

RequestKind KindOf(Op op) {
  switch (op) {
    case Op::kSimilar: return RequestKind::kSimilarTo;
    case Op::kApprox: return RequestKind::kApproxKnn;
    case Op::kDtw: return RequestKind::kSimilarToDtw;
    case Op::kPeriods: return RequestKind::kPeriodsOf;
    case Op::kBursts: return RequestKind::kBurstsOf;
    default: return RequestKind::kQueryByBurst;
  }
}

size_t OpIndex(Op op) { return static_cast<size_t>(op); }

// Answers of the first cycle's read rounds kept per client and kind for
// the oracle.
size_t SampleCap(Op op) {
  switch (op) {
    case Op::kSimilar:
    case Op::kApprox: return 8;
    case Op::kDtw: return 1;
    case Op::kQueryByBurst: return 2;
    default: return 4;
  }
}

std::vector<oracle::Hit> Hits(const std::vector<s2::index::Neighbor>& n) {
  std::vector<oracle::Hit> out;
  for (const auto& x : n) out.push_back({x.id, x.distance});
  return out;
}

std::vector<oracle::Hit> Hits(const std::vector<s2::burst::BurstMatch>& m) {
  std::vector<oracle::Hit> out;
  for (const auto& x : m) out.push_back({x.series_id, x.bsim});
  return out;
}

std::vector<oracle::Region> Regions(
    const std::vector<s2::burst::BurstRegion>& r) {
  std::vector<oracle::Region> out;
  for (const auto& x : r) out.push_back({x.start, x.end, x.avg_value});
  return out;
}

// Bitwise equality of two answers to the same request.
bool SameAnswer(const QueryResponse& a, const QueryResponse& b) {
  if (a.neighbors.size() != b.neighbors.size() ||
      a.periods.size() != b.periods.size() || a.bursts != b.bursts ||
      a.burst_matches.size() != b.burst_matches.size() ||
      a.approximate != b.approximate) {
    return false;
  }
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    if (a.neighbors[i].id != b.neighbors[i].id ||
        a.neighbors[i].distance != b.neighbors[i].distance) {
      return false;
    }
  }
  for (size_t i = 0; i < a.periods.size(); ++i) {
    if (a.periods[i].bin != b.periods[i].bin ||
        a.periods[i].power != b.periods[i].power) {
      return false;
    }
  }
  for (size_t i = 0; i < a.burst_matches.size(); ++i) {
    if (a.burst_matches[i].series_id != b.burst_matches[i].series_id ||
        a.burst_matches[i].bsim != b.burst_matches[i].bsim) {
      return false;
    }
  }
  return !a.approximate ||
         (a.quality.guaranteed_exact == b.quality.guaranteed_exact &&
          a.quality.candidates == b.quality.candidates);
}

template <typename T>
void Fill(s2::Result<T> result, T* payload, QueryResponse* response) {
  if (result.ok()) {
    *payload = std::move(result).ValueOrDie();
  } else {
    response->status = result.status();
  }
}

// A "<field> <n> kB" line of /proc/self/status, in kB (0 if absent).
double StatusKb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(field, 0) == 0) return std::stod(line.substr(field.size()));
  }
  return 0.0;
}

}  // namespace

double Quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sample.size())));
  const size_t at = rank == 0 ? 0 : std::min(rank, sample.size()) - 1;
  std::nth_element(sample.begin(), sample.begin() + at, sample.end());
  return sample[at];
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Outcome RunWorkload(const Workload& workload, uint64_t seed, double seconds,
                    bool trace) {
  Session session(workload, seed, seconds, trace);
  return session.Run();
}

Session::Session(const Workload& workload, uint64_t seed, double seconds,
                 bool trace)
    : w_(workload), seed_(seed), seconds_(seconds), trace_(trace) {
  run_dir_ = ".bench_run/" + std::string(w_.name) + "-" +
             std::to_string(::getpid());
}

Session::~Session() {
  if (server_ != nullptr) server_->Shutdown();
  server_.reset();
  std::error_code ec;
  fs::remove_all(run_dir_, ec);
}

Outcome Session::Run() {
  // Wall time of each phase goes to stdout, to show where a run's time
  // goes beyond the read rounds.
  Clock::time_point mark = Clock::now();
  const auto phase = [&mark](const char* name) {
    const Clock::time_point now = Clock::now();
    std::printf("# phase %-16s %8.2f s\n", name, UsBetween(mark, now) * 1e-6);
    mark = now;
  };
  const bool append_round =
      std::find(w_.round.begin(), w_.round.end(), Op::kAppend) != w_.round.end();
  try {
    MakeInputs();
    phase("inputs");
    inputs_rss_kb_ = StatusKb("VmRSS:");
    Setup();
    Subscribe();
    phase("setup");
    // The answers of the first cycle are checked before its first append:
    // after the DTW panel share when the rounds append, else after the
    // reads.
    for (size_t c = 0; c < kCycles; ++c) {
      DtwPanel(c);
      if (c == 0 && append_round) CheckSamples();
      MainPhase(c);
      if (c == 0 && !append_round) CheckSamples();
      CoverageAppends(c);
      if ((c + 1) % (kCycles / kRecoveries) == 0) {
        Recovery(c + 1 == kCycles / kRecoveries, c + 1 == kCycles);
      }
    }
    phase("cycles");
    if (trace_) {
      ReplayLayers();
      phase("layer replay");
    }
  } catch (const Fatal& fatal) {
    out_.errors.push_back(fatal.what());
    return out_;
  }
  if (trace_) {
    EmitTraceSummary();
    out_.metrics = layers_;
    std::error_code ec;
    fs::create_directories(".bench_trace", ec);
    const std::string path = ".bench_trace/" + std::string(w_.name) + "-" +
                             std::to_string(seed_) + ".jsonl";
    if (!tracer_.Write(path)) Expect(false, "could not write " + path);
  } else {
    EmitEndToEnd();
  }
  return out_;
}

void Session::Expect(bool ok, const std::string& what) {
  if (!ok) out_.errors.push_back(what);
}

// --- Inputs -------------------------------------------------------------

void Session::MakeInputs() {
  s2::qlog::CorpusSpec spec;
  spec.num_series = w_.series;
  spec.n_days = w_.days;
  spec.seed = kCorpusSeed;
  auto corpus = s2::qlog::GenerateCorpus(spec);
  if (!corpus.ok()) throw Fatal("corpus: " + corpus.status().ToString());
  base_ = std::move(corpus).ValueOrDie();
  for (const auto& series : base_.series()) {
    raw_.push_back(series.values);
    start_day_.push_back(series.start_day);
  }

  // Query ids are stratified by the generator's family (the name prefix):
  // a fixed schedule of 20 slots follows the family mix 7:1:3:3:6, so every
  // run asks about the same blend of weekly, monthly, seasonal, event and
  // aperiodic series. Per-query cost differs severalfold between families,
  // and a blend left to chance would make a run's medians depend on its seed.
  // The permutations and the subscription targets below are part of the
  // fixed data set, like the corpus; the run's seed draws the requests and
  // the appended points.
  std::mt19937_64 layout(kCorpusSeed ^ 0x5eedf00dull);
  const std::vector<std::string> prefixes = {"weekly", "monthly", "seasonal",
                                             "event", "aperiodic"};
  for (const std::string& prefix : prefixes) {
    std::vector<uint32_t> ids;
    for (uint32_t id = 0; id < w_.series; ++id) {
      if (base_.at(id).name.rfind(prefix + "_", 0) == 0) ids.push_back(id);
    }
    if (ids.empty()) throw Fatal("corpus has no " + prefix + " series");
    // Within a family, ids are drawn uniformly or by Zipf rank over a
    // seeded permutation, so popularity is not tied to generation order.
    std::shuffle(ids.begin(), ids.end(), layout);
    std::vector<double> cdf;
    if (w_.zipf > 0.0) {
      double total = 0.0;
      for (size_t r = 1; r <= ids.size(); ++r) {
        total += std::pow(static_cast<double>(r), -w_.zipf);
        cdf.push_back(total);
      }
      for (double& c : cdf) c /= total;
    }
    families_.push_back({std::move(ids), std::move(cdf)});
  }
  // Smooth weighted round robin over the families (in `prefixes` order):
  // spreads each family's slots evenly through the schedule.
  const auto schedule = [](const std::vector<size_t>& weights) {
    const size_t slots = std::accumulate(weights.begin(), weights.end(), size_t{0});
    std::vector<long> credit(weights.size(), 0);
    std::vector<size_t> out;
    for (size_t s = 0; s < slots; ++s) {
      for (size_t f = 0; f < weights.size(); ++f) credit[f] += static_cast<long>(weights[f]);
      const size_t pick = static_cast<size_t>(
          std::max_element(credit.begin(), credit.end()) - credit.begin());
      credit[pick] -= static_cast<long>(slots);
      out.push_back(pick);
    }
    return out;
  };
  schedule_ = schedule({7, 1, 3, 3, 6});
  // DTW queries walk a fixed panel of kDtwPanel series in an order drawn
  // from the seed. One DTW query costs 35-570 ms depending on the series,
  // so a run affords only about a hundred; drawn afresh each run, their
  // median moved by 13-17% between seeds, so every run times the same
  // panel (see DtwPanel). Weekly and monthly series cost
  // 2-5x the others', so the panel asks about them one time in five
  // (2:1:3:3:6), which puts the median inside the dense bulk of the cheaper
  // families. Each family contributes its first ids: its most popular ones
  // under Zipf.
  const std::vector<size_t> dtw_schedule = schedule({2, 1, 3, 3, 6});
  std::vector<size_t> taken(families_.size(), 0);
  for (size_t slot = 0; slot < kDtwPanel; ++slot) {
    const size_t f = dtw_schedule[slot % dtw_schedule.size()];
    if (taken[f] == families_[f].ids.size()) throw Fatal("DTW panel: family too small");
    dtw_order_.push_back(families_[f].ids[taken[f]++]);
  }
  while (subscribed_.size() < 8) {
    const uint32_t id = static_cast<uint32_t>(layout() % w_.series);
    if (std::find(subscribed_.begin(), subscribed_.end(), id) ==
        subscribed_.end()) {
      subscribed_.push_back(id);
    }
  }
  std::mt19937_64 rng(seed_ ^ 0x5eedf00dull);
  std::shuffle(dtw_order_.begin(), dtw_order_.end(), rng);
  for (size_t i = 0; i < w_.coverage_appends; ++i) {
    const uint32_t id = DrawAppendId(rng);
    coverage_appends_.push_back({id, NextValue(id, rng)});
  }
}

uint32_t Session::DrawId(Op op, size_t slot, std::mt19937_64& rng) {
  if (op == Op::kDtw) {
    return dtw_order_[dtw_next_.fetch_add(1, std::memory_order_relaxed) %
                      dtw_order_.size()];
  }
  const Family& family = families_[schedule_[slot % schedule_.size()]];
  if (family.zipf_cdf.empty()) return family.ids[rng() % family.ids.size()];
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const size_t rank = static_cast<size_t>(
      std::lower_bound(family.zipf_cdf.begin(), family.zipf_cdf.end(), u) -
      family.zipf_cdf.begin());
  return family.ids[std::min(rank, family.ids.size() - 1)];
}

// One append in four lands on a subscribed series, so the standing queries
// are evaluated and fire.
uint32_t Session::DrawAppendId(std::mt19937_64& rng) const {
  if (rng() % 4 == 0) return subscribed_[rng() % subscribed_.size()];
  return static_cast<uint32_t>(rng() % w_.series);
}

// The next day's count: the series' weekly level with noise, and now and
// then a spike that starts a burst.
double Session::NextValue(uint32_t id, std::mt19937_64& rng) const {
  const std::vector<double>& x = raw_[id];
  double level = 0.0;
  for (size_t i = x.size() - 7; i < x.size(); ++i) level += x[i];
  level /= 7.0;
  if (rng() % 16 == 0) return 3.0 * level + 5.0;
  const double noise = std::normal_distribution<double>(0.0, 0.15)(rng);
  return std::max(0.0, level * (1.0 + noise));
}

QueryRequest Session::MakeRequest(Op op, uint32_t id,
                                  std::mt19937_64& rng) const {
  QueryRequest request;
  request.kind = KindOf(op);
  request.id = id;
  request.k = kK;
  if (op == Op::kApprox) request.max_candidates = kApproxCandidates;
  if ((op == Op::kBursts || op == Op::kQueryByBurst) && rng() % 2 == 1) {
    request.horizon = s2::core::BurstHorizon::kShortTerm;
  }
  return request;
}

// --- Server calls -------------------------------------------------------

void Session::Setup() {
  std::error_code ec;
  fs::remove_all(run_dir_, ec);
  fs::create_directories(run_dir_, ec);
  if (ec) throw Fatal("cannot create " + run_dir_);

  server_options_.scheduler.threads = w_.workers;
  server_options_.shards = w_.shards;
  server_options_.wal_path = run_dir_ + "/wal";
  server_options_.wal_sync_every = kWalSyncEvery;
  server_options_.wal_rotate_bytes = kWalRotateBytes;
  server_options_.checkpoint_enabled = true;
  server_options_.compaction_threshold = kCompactionThreshold;

  s2::ts::Corpus corpus = base_;
  const Clock::time_point start = Clock::now();
  auto built = s2::service::S2Server::Build(std::move(corpus), engine_options_,
                                            server_options_);
  setup_s_ = UsBetween(start, Clock::now()) * 1e-6;
  ++out_.attempted;
  if (!built.ok()) throw Fatal("Build: " + built.status().ToString());
  server_ = std::move(built).ValueOrDie();
}

void Session::Subscribe() {
  for (size_t i = 0; i < subscribed_.size(); ++i) {
    s2::monitor::Subscription sub;
    sub.series = subscribed_[i];
    if (i < 3) {
      sub.kind = s2::monitor::SubscriptionKind::kBurstThreshold;
    } else if (i < 6) {
      sub.kind = s2::monitor::SubscriptionKind::kPeriodicityChange;
    } else {
      // Watch the series against a neighbour's shape with a radius just
      // outside their current distance, so appends move it across.
      sub.kind = s2::monitor::SubscriptionKind::kSimilarityWatch;
      sub.similarity.query = raw_[(subscribed_[i] + 1) % w_.series];
      const std::vector<double> a = oracle::ZNorm(raw_[subscribed_[i]]);
      const std::vector<double> b = oracle::ZNorm(sub.similarity.query);
      double sum = 0.0;
      for (size_t d = 0; d < a.size(); ++d) sum += (a[d] - b[d]) * (a[d] - b[d]);
      sub.similarity.radius = std::sqrt(sum) * 1.02 + 1e-6;
    }
    ++out_.attempted;
    auto id = server_->Subscribe(sub);
    if (!id.ok()) throw Fatal("Subscribe: " + id.status().ToString());
  }
}

std::pair<QueryResponse, double> Session::Ask(const QueryRequest& request) {
  const Clock::time_point start = Clock::now();
  auto ticket = server_->Submit(request);
  QueryResponse response;
  if (ticket.ok()) {
    response = ticket->Get();
  } else {
    response.status = ticket.status();
  }
  return {std::move(response), UsBetween(start, Clock::now())};
}

double Session::Append(uint32_t id, double value) {
  PinForAppend();
  const Clock::time_point start = Clock::now();
  const s2::Status status = server_->AppendPoint(id, value);
  const double us = UsBetween(start, Clock::now());
  Unpin();
  if (!status.ok()) return -1.0;
  std::vector<double>& x = raw_[id];
  x.erase(x.begin());
  x.push_back(value);
  ++start_day_[id];
  ++append_seq_;
  ++appends_acked_;
  append_log_.push_back({id, value});
  return us;
}

// One vCPU of a shared host at a time runs 20-40% slower for seconds to
// minutes. Reads run on several threads and average over the vCPUs, but
// appends all come from one thread, which stays on one vCPU for hundreds of
// appends: similarity's append_p50_us then read a ten-run spread of 0.20
// while its reads read 0.06. Each block of kPinBlock appends is therefore
// made on the next CPU in turn, so every run samples all of them; within a
// block the thread stays put and keeps its caches warm.
void Session::PinForAppend() {
  if (!affinity_read_) {
    affinity_read_ = true;
    CPU_ZERO(&all_cpus_);
    if (sched_getaffinity(0, sizeof(all_cpus_), &all_cpus_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &all_cpus_)) cpus_.push_back(c);
      }
    }
  }
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[(append_seq_ / kPinBlock) % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

// Threads the server starts inherit their creator's mask, so the mask is
// widened again as soon as the append returns.
void Session::Unpin() {
  if (cpus_.size() >= 2) sched_setaffinity(0, sizeof(all_cpus_), &all_cpus_);
}

void Session::TimedCheckpoint() {
  ++out_.attempted;
  const Clock::time_point start = Clock::now();
  const s2::Status status = server_->Checkpoint();
  checkpoint_us_.push_back(UsBetween(start, Clock::now()));
  if (!status.ok()) {
    ++out_.failed;
    Expect(false, "Checkpoint: " + status.ToString());
  }
}

void Session::DrainAlerts() {
  for (;;) {
    const std::vector<s2::monitor::Alert> alerts = server_->PollAlerts(4096);
    if (alerts.empty()) return;
    ++out_.attempted;
    if (!server_->AckAlerts(alerts.back().seq).ok()) {
      ++out_.failed;
      return;
    }
    alerts_acked_ += alerts.size();
  }
}

// --- Cycles -------------------------------------------------------------

void Session::DtwPanel(size_t c) {
  // dtw_p50_us is the median of the whole DTW panel, walked once per run,
  // kDtwPanel / kCycles series per cycle, from the engine. The cache is
  // emptied first, so a panel series that a read round asked about is not
  // answered from it.
  server_->cache().Invalidate();
  const size_t share = kDtwPanel / kCycles;
  std::mt19937_64 rng((seed_ ^ 0xc0ffeeull) + c);
  for (size_t i = c * share; i < (c + 1) * share; ++i) {
    ++out_.attempted;
    const QueryRequest request = MakeRequest(Op::kDtw, dtw_order_[i], rng);
    auto [response, us] = Ask(request);
    if (!response.status.ok()) {
      ++out_.failed;
      continue;
    }
    Expect(!response.cache_hit, "a DTW panel query was answered from the cache");
    dtw_panel_us_.push_back(us);
    if (c == 0 && i < 2) samples_.push_back({request, std::move(response)});
  }
}

void Session::MainPhase(size_t c) {
  const bool has_appends =
      std::find(w_.round.begin(), w_.round.end(), Op::kAppend) != w_.round.end();
  if (has_appends && w_.clients != 1) {
    throw Fatal("rounds with appends need exactly one client");
  }
  const uint64_t hits_before = server_->cache().hits();
  const uint64_t misses_before = server_->cache().misses();
  const uint64_t calls_before =
      server_->metrics().counter("server_engine_calls")->value();
  const uint64_t acked_before = appends_acked_;
  // A traced run traces the second half of its cycles; the first half is
  // its untraced reference.
  const bool traced = trace_ && c >= kCycles / 2;
  // Only the first cycle's answers are checked, before the corpus changes.
  const bool keep = c == 0;

  std::vector<ClientLog> logs(w_.clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds_ / kCycles));
  std::vector<std::thread> clients;
  for (size_t i = 0; i < w_.clients; ++i) {
    clients.emplace_back([this, i, c, end, traced, keep, &logs] {
      Client(i * kCycles + c, end, traced, keep, &logs[i]);
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = UsBetween(start, Clock::now()) * 1e-6;
  main_s_ += seconds;

  uint64_t reads = 0;
  for (ClientLog& log : logs) {
    out_.attempted += log.attempted;
    out_.failed += log.failed;
    reads += log.reads;
    for (size_t k = 0; k < engine_us_.size(); ++k) {
      engine_us_[k].insert(engine_us_[k].end(), log.engine_us[k].begin(),
                           log.engine_us[k].end());
    }
    const auto append_to = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append_to(query_us_, log.query_us);
    append_to(append_us_, log.append_us);
    append_to(untraced_headline_us_, log.untraced_headline);
    append_to(traced_headline_us_, log.traced_headline);
    append_to(queue_wait_us_, log.queue_wait);
    append_to(exec_us_, log.exec);
    append_to(knn_queue_wait_us_, log.knn_queue_wait);
    append_to(untraced_knn_us_, log.untraced_knn);
    if (keep && !has_appends) {
      samples_.insert(samples_.end(), log.samples.begin(), log.samples.end());
      cache_hits_.insert(cache_hits_.end(), log.cache_hits.begin(),
                         log.cache_hits.end());
    }
  }
  main_reads_ += reads;
  if (has_appends) {
    append_phase_s_ += seconds;
    append_phase_count_ += appends_acked_ - acked_before;
  }

  // Every completed request was either answered from the cache or reached
  // the engine exactly once.
  const uint64_t hits = server_->cache().hits() - hits_before;
  cache_hits_main_ += hits;
  cache_lookups_main_ += hits + server_->cache().misses() - misses_before;
  const uint64_t calls =
      server_->metrics().counter("server_engine_calls")->value() - calls_before;
  Expect(calls + hits == reads,
         "engine calls " + std::to_string(calls) + " + cache hits " +
             std::to_string(hits) + " != completed requests " +
             std::to_string(reads));
}

// `stream` numbers the client's rounds generator: one per client and cycle.
void Session::Client(size_t stream, Clock::time_point end, bool traced, bool keep,
                     ClientLog* log) {
  std::mt19937_64 rng(seed_ * 1000003ull + 17 + stream);
  std::array<size_t, 7> kept{};
  // Per-kind slot counters of the family schedule; clients start at
  // different slots.
  std::array<size_t, 7> drawn;
  drawn.fill((stream / kCycles) * 5);
  std::vector<Op> round = w_.round;
  const bool append_round =
      std::find(round.begin(), round.end(), Op::kAppend) != round.end();
  const bool all_verbs =
      std::find(round.begin(), round.end(), Op::kDtw) != round.end();
  // Whole rounds only: the time check sits between rounds.
  while (Clock::now() < end) {
    std::shuffle(round.begin(), round.end(), rng);
    for (const Op op : round) {
      ++log->attempted;
      if (op == Op::kAppend) {
        const uint32_t id = DrawAppendId(rng);
        const Clock::time_point t0 = Clock::now();
        const double us = Append(id, NextValue(id, rng));
        if (us < 0) {
          ++log->failed;
          continue;
        }
        if (appends_acked_ % w_.checkpoint_every == 0) TimedCheckpoint();
        ++log->appends;
        log->append_us.push_back(us);
        if (trace_) {
          (traced ? log->traced_headline : log->untraced_headline).push_back(us);
          if (traced) {
            tracer_.Add("append", t0, t0 + std::chrono::microseconds(
                                              static_cast<int64_t>(us)),
                        -1, 0);
          }
        }
        continue;
      }
      const QueryRequest request =
          MakeRequest(op, DrawId(op, drawn[OpIndex(op)]++, rng), rng);
      const Clock::time_point t0 = Clock::now();
      auto [response, us] = Ask(request);
      const Clock::time_point t1 = Clock::now();
      if (!response.status.ok()) {
        ++log->failed;
        continue;
      }
      ++log->reads;
      log->query_us.push_back(us);
      if (!response.cache_hit) log->engine_us[OpIndex(op)].push_back(us);
      if (trace_) {
        if (!traced && op == Op::kSimilar && !response.cache_hit) {
          log->untraced_knn.push_back(us);
        }
        // The operation the overhead is judged on: every read in explore,
        // engine-answered kSimilarTo in similarity, appends in ingest.
        const bool headline =
            !append_round &&
            (all_verbs || (op == Op::kSimilar && !response.cache_hit));
        if (headline) {
          (traced ? log->traced_headline : log->untraced_headline).push_back(us);
        }
        if (traced) {
          // The server reports execution time; the rest of the interval is
          // admission, queueing and hand-off.
          const double exec = static_cast<double>(response.latency.count());
          const double wait = std::max(0.0, us - exec);
          log->queue_wait.push_back(wait);
          log->exec.push_back(exec);
          if (op == Op::kSimilar) log->knn_queue_wait.push_back(wait);
          const uint64_t rid = (static_cast<uint64_t>(stream) << 40) | log->reads;
          const int64_t parent = tracer_.Add("request", t0, t1, -1, rid);
          const Clock::time_point split =
              t0 + std::chrono::microseconds(static_cast<int64_t>(wait));
          tracer_.Add("service.queue_wait", t0, split, parent, rid);
          tracer_.Add("service.exec", split, t1, parent, rid);
        }
      }
      if (!keep) continue;
      if (response.cache_hit) {
        if (log->cache_hits.size() < 8) {
          log->cache_hits.push_back({request, std::move(response)});
        }
      } else if (kept[OpIndex(op)] < SampleCap(op)) {
        ++kept[OpIndex(op)];
        log->samples.push_back({request, std::move(response)});
      }
    }
    if (append_round) DrainAlerts();
  }
}

void Session::CoverageAppends(size_t c) {
  const size_t share = coverage_appends_.size() / kCycles;
  if (share == 0) return;
  const Clock::time_point start = Clock::now();
  for (size_t i = c * share; i < (c + 1) * share; ++i) {
    const auto& [id, value] = coverage_appends_[i];
    ++out_.attempted;
    const double us = Append(id, value);
    if (us < 0) {
      ++out_.failed;
      continue;
    }
    if (appends_acked_ % w_.checkpoint_every == 0) TimedCheckpoint();
    append_us_.push_back(us);
    ++append_phase_count_;
  }
  append_phase_s_ += UsBetween(start, Clock::now()) * 1e-6;
  DrainAlerts();
}

void Session::Recovery(bool first, bool last) {
  DrainAlerts();
  if (first) {
    // Totals of the server's first lifetime: a recovered server restores
    // its queue from the snapshot and re-raises the tail's alerts.
    const auto monitor = server_->monitor_info();
    Expect(monitor.alerts_fired ==
               alerts_acked_ + monitor.alerts_dropped + monitor.queue_depth,
           "alerts fired " + std::to_string(monitor.alerts_fired) +
               " != acked " + std::to_string(alerts_acked_) + " + dropped " +
               std::to_string(monitor.alerts_dropped) + " + queued " +
               std::to_string(monitor.queue_depth));
  }

  TimedCheckpoint();
  std::mt19937_64 rng((seed_ ^ 0x7a11ull) + appends_acked_);
  for (size_t i = 0; i < kTailRecords; ++i) {
    ++out_.attempted;
    const uint32_t id = static_cast<uint32_t>(rng() % w_.series);
    if (Append(id, NextValue(id, rng)) < 0) ++out_.failed;
  }

  // Live answers over the final corpus, checked against the shadow; the
  // recovered server must answer exactly as the live one did.
  std::vector<Sample> live;
  if (last) {
    const std::vector<std::pair<Op, size_t>> plan = {
        {Op::kSimilar, 6}, {Op::kApprox, 6}, {Op::kPeriods, 4},
        {Op::kBursts, 4},  {Op::kQueryByBurst, 2}};
    for (const auto& [op, count] : plan) {
      for (size_t i = 0; i < count; ++i) {
        ++out_.attempted;
        QueryRequest request =
            MakeRequest(op, static_cast<uint32_t>(rng() % w_.series), rng);
        if (op == Op::kQueryByBurst) {
          request.horizon = s2::core::BurstHorizon::kLongTerm;
        }
        auto [response, us] = Ask(request);
        if (!response.status.ok()) {
          ++out_.failed;
          continue;
        }
        live.push_back({request, std::move(response)});
      }
    }
  }
  const oracle::Rows z = last ? ShadowZ() : oracle::Rows{};
  for (const Sample& s : live) Check(s, z, false);

  const auto stream = server_->stream_info();
  const auto monitor_end = server_->monitor_info();
  const uint64_t invalidations =
      server_->metrics().counter("cache_invalidations")->value();
  const uint64_t evaluations =
      server_->metrics().histogram("monitor_eval_latency")->count();
  server_->Shutdown();
  server_.reset();

  s2::ts::Corpus corpus = base_;
  ++out_.attempted;
  const Clock::time_point start = Clock::now();
  auto recovered = s2::service::S2Server::Recover(std::move(corpus), engine_options_,
                                                  server_options_);
  recover_s_.push_back(UsBetween(start, Clock::now()) * 1e-6);
  if (!recovered.ok()) throw Fatal("Recover: " + recovered.status().ToString());
  server_ = std::move(recovered).ValueOrDie();

  const auto info = server_->checkpoint_info();
  const auto replay = server_->stream_info();
  Expect(info.recovered_from_checkpoint, "recovery did not load a checkpoint");
  Expect(replay.replayed_records == kTailRecords,
         "replayed " + std::to_string(replay.replayed_records) +
             " WAL records, expected " + std::to_string(kTailRecords));
  Expect(info.recovery_anchor_appends + replay.replayed_records == appends_acked_,
         "recovery anchor " + std::to_string(info.recovery_anchor_appends) +
             " + replayed " + std::to_string(replay.replayed_records) +
             " != acknowledged appends " + std::to_string(appends_acked_));
  if (!last) return;

  // Exact answers must come back bit for bit. Approximate answers are held
  // to their quality bound against the oracle instead: recovery retrains
  // the summary configuration on the snapshot's corpus (see CHANGES.md), so
  // its candidate sets, and with them its answers, may legitimately differ.
  for (const Sample& s : live) {
    ++out_.attempted;
    auto [response, us] = Ask(s.request);
    if (!response.status.ok()) {
      ++out_.failed;
      continue;
    }
    if (s.request.kind == RequestKind::kApproxKnn) {
      Check({s.request, std::move(response)}, z, false);
      continue;
    }
    Expect(SameAnswer(s.response, response),
           "recovered server answers " +
               std::string(s2::service::RequestKindToString(s.request.kind)) +
               " for id " + std::to_string(s.request.id) +
               " differently from the live server");
  }
  if (!live.empty()) {
    QueryResponse perturbed = live.front().response;
    perturbed.neighbors.front().distance *= 1.0 + 1e-12;
    Expect(!SameAnswer(live.front().response, perturbed),
           "answer comparison accepts a perturbed answer");
  }

  if (trace_) {
    uint64_t disk_bytes = 0;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(run_dir_, ec)) {
      if (entry.is_regular_file()) disk_bytes += entry.file_size();
    }
    const double replay_us = static_cast<double>(replay.replay_time.count());
    layers_.push_back({"service.cache_invalidations",
                       static_cast<double>(invalidations), "count"});
    layers_.push_back({"stream.delta_size", static_cast<double>(stream.delta_size),
                       "count"});
    layers_.push_back({"stream.compactions",
                       static_cast<double>(stream.compaction_count), "count"});
    layers_.push_back({"monitor.evaluations", static_cast<double>(evaluations),
                       "count"});
    layers_.push_back({"monitor.alerts_fired",
                       static_cast<double>(monitor_end.alerts_fired), "count"});
    layers_.push_back({"ckpt.checkpoint_us", Median(checkpoint_us_), "us"});
    layers_.push_back({"ckpt.tail_records",
                       static_cast<double>(replay.replayed_records), "count"});
    layers_.push_back({"ckpt.replay_us", replay_us, "us"});
    layers_.push_back(
        {"ckpt.rebuild_us", recover_s_.back() * 1e6 - replay_us, "us"});
    layers_.push_back({"ckpt.disk_bytes", static_cast<double>(disk_bytes), "bytes"});
  }
}

// --- Checks -------------------------------------------------------------

std::vector<std::vector<double>> Session::ShadowZ() const {
  std::vector<std::vector<double>> z;
  z.reserve(raw_.size());
  for (const auto& x : raw_) z.push_back(oracle::ZNorm(x));
  return z;
}

QueryResponse Session::Direct(const QueryRequest& r) const {
  QueryResponse out;
  const bool sharded = server_->is_sharded();
  switch (r.kind) {
    case RequestKind::kSimilarTo:
      Fill(sharded ? server_->sharded().SimilarTo(r.id, r.k)
                   : server_->engine().SimilarTo(r.id, r.k),
           &out.neighbors, &out);
      break;
    case RequestKind::kSimilarToDtw:
      Fill(sharded ? server_->sharded().SimilarToDtw(r.id, r.k)
                   : server_->engine().SimilarToDtw(r.id, r.k),
           &out.neighbors, &out);
      break;
    case RequestKind::kPeriodsOf:
      Fill(sharded ? server_->sharded().FindPeriods(r.id)
                   : server_->engine().FindPeriods(r.id),
           &out.periods, &out);
      break;
    case RequestKind::kBurstsOf:
      Fill(sharded ? server_->sharded().BurstsOf(r.id, r.horizon)
                   : server_->engine().BurstsOf(r.id, r.horizon),
           &out.bursts, &out);
      break;
    case RequestKind::kQueryByBurst:
      Fill(sharded ? server_->sharded().QueryByBurst(r.id, r.k, r.horizon)
                   : server_->engine().QueryByBurst(r.id, r.k, r.horizon),
           &out.burst_matches, &out);
      break;
    case RequestKind::kApproxKnn: {
      s2::approx::QueryParams params;
      params.k = r.k;
      params.recall_target = r.recall_target;
      params.max_candidates = r.max_candidates;
      auto answer = sharded ? server_->sharded().ApproxKnn(r.id, params)
                            : server_->engine().ApproxKnn(r.id, params);
      if (!answer.ok()) {
        out.status = answer.status();
        break;
      }
      out.neighbors = answer->neighbors;
      out.quality = answer->bound;
      out.approximate = true;
      break;
    }
  }
  return out;
}

std::vector<oracle::Region> Session::BurstsOf(uint32_t id, int horizon) const {
  const auto h = horizon == 0 ? s2::core::BurstHorizon::kLongTerm
                              : s2::core::BurstHorizon::kShortTerm;
  auto regions = server_->is_sharded() ? server_->sharded().BurstsOf(id, h)
                                       : server_->engine().BurstsOf(id, h);
  if (!regions.ok()) throw Fatal("BurstsOf: " + regions.status().ToString());
  return Regions(*regions);
}

void Session::CheckSamples() {
  // Read before the oracle's standardized copy of the corpus exists.
  peak_rss_kb_ = StatusKb("VmHWM:");
  const oracle::Rows z = ShadowZ();
  std::array<bool, 6> tested{};
  for (const Sample& s : samples_) {
    const size_t kind = static_cast<size_t>(s.request.kind);
    Check(s, z, !tested[kind]);
    tested[kind] = true;
  }
  // A cached answer must equal an uncached re-execution (the corpus has not
  // changed since it was cached).
  for (const Sample& s : cache_hits_) {
    const QueryResponse fresh = Direct(s.request);
    Expect(fresh.status.ok() && SameAnswer(s.response, fresh),
           "cached " +
               std::string(s2::service::RequestKindToString(s.request.kind)) +
               " answer for id " + std::to_string(s.request.id) +
               " differs from an uncached re-execution");
  }
}

void Session::Check(const Sample& sample, const oracle::Rows& z,
                    bool self_test) {
  const QueryRequest& r = sample.request;
  const QueryResponse& resp = sample.response;
  const std::string what =
      std::string(s2::service::RequestKindToString(r.kind)) + " id " +
      std::to_string(r.id) + ": ";
  const int horizon = r.horizon == s2::core::BurstHorizon::kLongTerm ? 0 : 1;
  // Runs the checker on the answer, and on the perturbed copy when
  // self-testing: a checker that accepts a perturbed answer proves nothing.
  const auto judge = [&](auto&& check, auto answer, auto&& perturb) {
    const std::string fault = check(answer);
    Expect(fault.empty(), what + fault);
    if (self_test && fault.empty()) {
      perturb(answer);
      Expect(!check(answer).empty(), what + "checker accepts a perturbed answer");
    }
  };
  // Swaps the last hit for the farthest id: no longer a top-k answer.
  const auto swap_far = [](const std::vector<double>& truth) {
    return [&truth](std::vector<oracle::Hit>& hits) {
      size_t far = 0;
      for (size_t i = 0; i < truth.size(); ++i) {
        if (truth[i] > truth[far] && std::isfinite(truth[i])) far = i;
      }
      if (!hits.empty()) hits.back() = {static_cast<uint32_t>(far), truth[far]};
    };
  };

  switch (r.kind) {
    case RequestKind::kSimilarTo:
    case RequestKind::kApproxKnn: {
      const std::vector<double> truth = oracle::EuclidAll(z, z[r.id]);
      if (r.kind == RequestKind::kSimilarTo) {
        judge([&](const auto& h) { return oracle::CheckKnn(h, truth, r.k, r.id); },
              Hits(resp.neighbors), swap_far(truth));
      } else {
        judge(
            [&](const auto& h) {
              return oracle::CheckApprox(h, truth, r.k, r.id,
                                         resp.quality.guaranteed_exact,
                                         resp.quality.epsilon);
            },
            Hits(resp.neighbors),
            [](std::vector<oracle::Hit>& h) { h.back().score *= 1.0 + 1e-6; });
      }
      break;
    }
    case RequestKind::kSimilarToDtw: {
      const std::vector<double> truth =
          oracle::DtwAll(z, z[r.id], engine_options_.dtw_window, r.k, r.id);
      judge([&](const auto& h) { return oracle::CheckKnn(h, truth, r.k, r.id); },
            Hits(resp.neighbors), swap_far(truth));
      break;
    }
    case RequestKind::kPeriodsOf: {
      std::vector<oracle::Period> periods;
      for (const auto& p : resp.periods) periods.push_back({p.bin, p.power});
      const auto& opts = engine_options_.period;
      judge(
          [&](const auto& p) {
            return oracle::CheckPeriods(p, raw_[r.id], opts.false_alarm_probability,
                                        opts.max_period_fraction);
          },
          periods,
          [](std::vector<oracle::Period>& p) {
            if (p.empty()) {
              p.push_back({2, 0.0});
            } else {
              p.erase(p.begin());
            }
          });
      break;
    }
    case RequestKind::kBurstsOf: {
      const auto& opts =
          horizon == 0 ? engine_options_.long_burst : engine_options_.short_burst;
      judge(
          [&](const auto& b) {
            return oracle::CheckBursts(
                b, raw_[r.id], start_day_[r.id],
                {opts.window, opts.cutoff_stds, opts.min_avg_value, opts.min_length});
          },
          Regions(resp.bursts),
          [&](std::vector<oracle::Region>& b) {
            if (b.empty()) {
              b.push_back({start_day_[r.id], start_day_[r.id], 0.0});
            } else {
              b.back().avg += 1e-3;
            }
          });
      break;
    }
    case RequestKind::kQueryByBurst: {
      auto& all = all_bursts_[horizon];
      if (all_bursts_at_ != append_seq_) {
        all_bursts_[0].clear();
        all_bursts_[1].clear();
        all_bursts_at_ = append_seq_;
      }
      if (all.empty()) {
        for (uint32_t id = 0; id < w_.series; ++id) all.push_back(BurstsOf(id, horizon));
      }
      std::vector<double> scores(w_.series, 0.0);
      for (uint32_t id = 0; id < w_.series; ++id) {
        if (id != r.id) scores[id] = oracle::BSim(all[r.id], all[id]);
      }
      judge(
          [&](const auto& h) {
            return oracle::CheckQueryByBurst(h, scores, r.k, r.id);
          },
          Hits(resp.burst_matches),
          [&](std::vector<oracle::Hit>& h) {
            if (h.empty()) {
              h.push_back({r.id == 0 ? 1u : 0u, 1.0});
            } else {
              h.front().score *= 1.0 + 1e-6;
            }
          });
      break;
    }
  }
}

// --- Metrics ------------------------------------------------------------

void Session::EmitEndToEnd() {
  const auto& knn = engine_us_[OpIndex(Op::kSimilar)];
  const auto& aknn = engine_us_[OpIndex(Op::kApprox)];
  const auto& dtw = dtw_panel_us_;
  Expect(!knn.empty() && !aknn.empty() && !dtw.empty() && !query_us_.empty() &&
             !append_us_.empty(),
         "a latency metric has no samples");
  out_.metrics = {
      {"setup_s", setup_s_, "s"},
      {"peak_rss_mb", (peak_rss_kb_ - inputs_rss_kb_) / 1024.0, "MB"},
      {"knn_p50_us", Quantile(knn, 0.5), "us"},
      {"knn_p99_us", Quantile(knn, 0.99), "us"},
      {"aknn_p50_us", Quantile(aknn, 0.5), "us"},
      {"aknn_p90_us", Quantile(aknn, 0.9), "us"},
      {"queries_per_s", static_cast<double>(main_reads_) / main_s_, "req/s"},
      {"query_p50_us", Quantile(query_us_, 0.5), "us"},
      {"query_p99_us", Quantile(query_us_, 0.99), "us"},
      {"dtw_p50_us", Quantile(dtw, 0.5), "us"},
      {"appends_per_s",
       static_cast<double>(append_phase_count_) / append_phase_s_, "appends/s"},
      {"append_p50_us", Quantile(append_us_, 0.5), "us"},
      {"append_p99_us", Quantile(append_us_, 0.99), "us"},
      {"recover_s", Median(recover_s_), "s"},
  };
  std::printf("# %s: %zu knn, %zu aknn, %zu dtw, %zu reads, %zu appends sampled\n",
              w_.name, knn.size(), aknn.size(), dtw.size(), query_us_.size(),
              append_us_.size());
}

}  // namespace s2bench
