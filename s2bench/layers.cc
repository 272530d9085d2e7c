// The traced run's layer replay: a sample of the workload's operations,
// issued against each layer's public functions on the live server's
// engines (idle at this point) and on standalone copies, with a span per
// call and the layers' own stats out-params and counters.

#include <algorithm>
#include <filesystem>
#include <random>

#include "session.h"
#include "stream/wal.h"

namespace s2bench {

namespace {

constexpr size_t kReplayQueries = 24;
constexpr size_t kReplayDtw = 4;
constexpr size_t kReplayAppends = 256;

}  // namespace

void Session::ReplayLayers() {
  using s2::core::BurstHorizon;
  namespace fs = std::filesystem;
  std::mt19937_64 rng(seed_ ^ 0x1a7e5ull);
  const bool sharded = server_->is_sharded();
  const size_t n = w_.series;
  const auto z = ShadowZ();
  uint64_t request = 1ull << 60;
  const auto span = [&](const char* name, Clock::time_point a,
                        Clock::time_point b, int64_t parent) {
    return tracer_.Add(name, a, b, parent, request);
  };
  const auto engine = [&](size_t s) -> const s2::core::S2Engine& {
    return sharded ? server_->sharded().shard(s) : server_->engine();
  };
  const size_t shards = sharded ? server_->sharded().num_shards() : 1;
  // The owner shard's standardized row and local id of a global id.
  const auto owner = [&](uint32_t id) -> std::pair<size_t, uint32_t> {
    if (!sharded) return {0, id};
    const auto placement = server_->sharded().PlacementOf(id);
    return {placement->shard, placement->local};
  };

  // --- kSimilarTo / kApproxKnn path ---------------------------------------
  std::vector<double> fanout, prunes, gather, slowest, shard_median, search_us,
      nodes, bounds, retrievals, exact_us, approx_us, rows, candidates,
      verified, recall;
  size_t exact_answers = 0;
  for (size_t q = 0; q < kReplayQueries; ++q) {
    ++request;
    const uint32_t id = static_cast<uint32_t>(rng() % n);
    const Clock::time_point begin = Clock::now();
    const int64_t parent = span("replay.knn", begin, begin, -1);

    Clock::time_point t0 = Clock::now();
    if (sharded) {
      s2::shard::ShardedEngine::QueryStats stats;
      Expect(server_->sharded().SimilarTo(id, kK, &stats).ok(), "replay SimilarTo");
      const Clock::time_point t1 = Clock::now();
      span("shard.similar_to", t0, t1, parent);
      std::vector<double> lat;
      for (const auto& l : stats.shard_latencies) lat.push_back(static_cast<double>(l.count()));
      const double slow = lat.empty() ? 0.0 : *std::max_element(lat.begin(), lat.end());
      knn_call_us_.push_back(UsBetween(t0, t1));
      fanout.push_back(static_cast<double>(stats.fanout));
      prunes.push_back(static_cast<double>(stats.shared_radius_prunes));
      slowest.push_back(slow);
      shard_median.push_back(Median(lat));
      gather.push_back(UsBetween(t0, t1) - slow);
    } else {
      s2::index::VpTreeIndex::SearchStats stats;
      Expect(server_->engine().SimilarTo(id, kK, &stats).ok(), "replay SimilarTo");
      const Clock::time_point t1 = Clock::now();
      span("shard.similar_to", t0, t1, parent);
      knn_call_us_.push_back(UsBetween(t0, t1));
      fanout.push_back(1.0);
      prunes.push_back(static_cast<double>(stats.shared_radius_prunes));
    }

    // Each shard's index search on the same row, one after another.
    const auto [home, local] = owner(id);
    const std::vector<double>& row = engine(home).standardized(local);
    double visited = 0, scored = 0, fetched = 0;
    for (size_t s = 0; s < shards; ++s) {
      s2::index::VpTreeIndex::SearchStats stats;
      t0 = Clock::now();
      Expect(engine(s).SimilarToStandardized(
                          row, kK, s == home ? local : s2::ts::kInvalidSeriesId,
                          &stats)
                 .ok(),
             "replay SimilarToStandardized");
      const Clock::time_point t1 = Clock::now();
      span("index.search", t0, t1, parent);
      search_us.push_back(UsBetween(t0, t1));
      visited += static_cast<double>(stats.nodes_visited);
      scored += static_cast<double>(stats.bound_computations);
      fetched += static_cast<double>(stats.full_retrievals);
    }
    nodes.push_back(visited);
    bounds.push_back(scored);
    retrievals.push_back(fetched);
    if (!sharded) {
      // One shard: it is the slowest and the median, and the gather is the
      // part of the engine call outside its index search.
      slowest.push_back(search_us.back());
      shard_median.push_back(search_us.back());
      gather.push_back(knn_call_us_.back() - search_us.back());
    }

    t0 = Clock::now();
    Expect((sharded ? server_->sharded().SimilarToExact(id, kK)
                    : server_->engine().SimilarToExact(id, kK))
               .ok(),
           "replay SimilarToExact");
    Clock::time_point t1 = Clock::now();
    span("core.exact_scan", t0, t1, parent);
    exact_us.push_back(UsBetween(t0, t1));

    s2::approx::QueryParams params;
    params.k = kK;
    params.max_candidates = kApproxCandidates;
    s2::approx::ScanStats scan;
    t0 = Clock::now();
    auto answer = sharded ? server_->sharded().ApproxKnn(id, params, nullptr, &scan)
                          : server_->engine().ApproxKnn(id, params, &scan);
    t1 = Clock::now();
    span("approx.search", t0, t1, parent);
    tracer_.Close(parent, t1);
    if (!answer.ok()) {
      Expect(false, "replay ApproxKnn: " + answer.status().ToString());
      continue;
    }
    approx_us.push_back(UsBetween(t0, t1));
    rows.push_back(static_cast<double>(scan.rows_scanned));
    candidates.push_back(static_cast<double>(scan.candidates));
    verified.push_back(static_cast<double>(scan.verified));
    if (answer->bound.guaranteed_exact) ++exact_answers;
    // Recall against the oracle's own top-k.
    const std::vector<double> truth = oracle::EuclidAll(z, z[id]);
    std::vector<uint32_t> order(n);
    for (uint32_t i = 0; i < n; ++i) order[i] = i;
    order.erase(order.begin() + id);
    std::partial_sort(order.begin(), order.begin() + kK, order.end(),
                      [&](uint32_t a, uint32_t b) {
                        return truth[a] != truth[b] ? truth[a] < truth[b] : a < b;
                      });
    size_t found = 0;
    for (const auto& hit : answer->neighbors) {
      found += std::find(order.begin(), order.begin() + kK, hit.id) !=
               order.begin() + kK;
    }
    recall.push_back(static_cast<double>(found) / kK);
  }

  // --- DTW ------------------------------------------------------------------
  std::vector<double> dtw_us, skips, computed;
  for (size_t q = 0; q < kReplayDtw; ++q) {
    ++request;
    const uint32_t id = static_cast<uint32_t>(rng() % n);
    const auto [home, local] = owner(id);
    Clock::time_point t0 = Clock::now();
    Expect((sharded ? server_->sharded().SimilarToDtw(id, kK)
                    : server_->engine().SimilarToDtw(id, kK))
               .ok(),
           "replay SimilarToDtw");
    const Clock::time_point t1 = Clock::now();
    span("dtw.search", t0, t1, -1);
    dtw_us.push_back(UsBetween(t0, t1));
    // The counters, shard by shard, in a child pass outside the timing.
    double skipped = 0, dp = 0;
    for (size_t s = 0; s < shards; ++s) {
      s2::dtw::DtwKnnSearch::SearchStats stats;
      t0 = Clock::now();
      Expect(engine(s).SimilarToDtwStandardized(
                          engine(home).standardized(local), kK,
                          s == home ? local : s2::ts::kInvalidSeriesId, &stats)
                 .ok(),
             "replay SimilarToDtwStandardized");
      span("dtw.shard_search", t0, Clock::now(), -1);
      skipped += static_cast<double>(stats.lb_keogh_skips);
      dp += static_cast<double>(stats.dtw_computed);
    }
    skips.push_back(skipped);
    computed.push_back(dp);
  }

  // --- Periods and bursts ---------------------------------------------------
  std::vector<double> period_us, bursts_us, qbb_us, scanned;
  for (size_t q = 0; q < kReplayQueries; ++q) {
    ++request;
    const uint32_t id = static_cast<uint32_t>(rng() % n);
    const BurstHorizon horizon =
        q % 2 == 0 ? BurstHorizon::kLongTerm : BurstHorizon::kShortTerm;
    Clock::time_point t0 = Clock::now();
    Expect((sharded ? server_->sharded().FindPeriods(id)
                    : server_->engine().FindPeriods(id))
               .ok(),
           "replay FindPeriods");
    Clock::time_point t1 = Clock::now();
    span("period.find", t0, t1, -1);
    period_us.push_back(UsBetween(t0, t1));

    t0 = Clock::now();
    Expect((sharded ? server_->sharded().BurstsOf(id, horizon)
                    : server_->engine().BurstsOf(id, horizon))
               .ok(),
           "replay BurstsOf");
    t1 = Clock::now();
    span("burst.bursts_of", t0, t1, -1);
    bursts_us.push_back(UsBetween(t0, t1));

    t0 = Clock::now();
    Expect((sharded ? server_->sharded().QueryByBurst(id, kK, horizon)
                    : server_->engine().QueryByBurst(id, kK, horizon))
               .ok(),
           "replay QueryByBurst");
    t1 = Clock::now();
    span("burst.query_by_burst", t0, t1, -1);
    qbb_us.push_back(UsBetween(t0, t1));
    double touched = 0;
    for (size_t s = 0; s < shards; ++s) {
      touched += static_cast<double>(engine(s).burst_table(horizon).last_scanned());
    }
    scanned.push_back(touched);
  }

  // A standalone long-term burst table of the workload's size, refreshed
  // for one series the way every append refreshes it.
  std::vector<std::vector<s2::burst::BurstRegion>> by_series(n);
  for (size_t s = 0; s < shards; ++s) {
    for (const auto& record : engine(s).burst_table(BurstHorizon::kLongTerm).records()) {
      const uint32_t global =
          sharded ? server_->sharded().GlobalId(s, record.series_id) : record.series_id;
      by_series[global].push_back(record.region());
    }
  }
  s2::burst::BurstTable table;
  for (uint32_t id = 0; id < n; ++id) table.Insert(id, by_series[id], 0);
  std::vector<double> refresh_us;
  for (size_t q = 0; q < kReplayQueries; ++q) {
    ++request;
    const uint32_t id = static_cast<uint32_t>(rng() % n);
    const Clock::time_point t0 = Clock::now();
    table.EraseSeries(id);
    table.Insert(id, by_series[id], 0);
    const Clock::time_point t1 = Clock::now();
    span("burst.table_refresh", t0, t1, -1);
    refresh_us.push_back(UsBetween(t0, t1));
  }

  // --- Appends on a standalone engine and WAL -------------------------------
  // The engine is the server's per-shard unit: a copy of shard 0 (or of the
  // whole corpus on one shard), replaying the run's appends that land there.
  s2::ts::Corpus corpus = sharded ? server_->sharded().shard(0).corpus() : base_;
  auto standalone = s2::core::S2Engine::Build(std::move(corpus), engine_options_);
  std::vector<double> compaction_us;
  if (!standalone.ok()) {
    Expect(false, "standalone engine: " + standalone.status().ToString());
  } else {
    s2::core::S2Engine& e = *standalone;
    const auto& appends = append_log_.empty() ? coverage_appends_ : append_log_;
    for (const auto& [id, value] : appends) {
      if (engine_append_us_.size() == kReplayAppends) break;
      const auto [home, local] = owner(id);
      if (home != 0) continue;
      ++request;
      Clock::time_point t0 = Clock::now();
      Expect(e.AppendPoint(local, value).ok(), "standalone AppendPoint");
      Clock::time_point t1 = Clock::now();
      span("stream.engine_append", t0, t1, -1);
      engine_append_us_.push_back(UsBetween(t0, t1));
      if (e.delta_size() >= server_options_.compaction_threshold) {
        t0 = Clock::now();
        Expect(e.Compact().ok(), "standalone Compact");
        t1 = Clock::now();
        span("stream.compaction", t0, t1, -1);
        compaction_us.push_back(UsBetween(t0, t1));
      }
    }
    if (compaction_us.empty() && e.delta_size() > 0) {
      const Clock::time_point t0 = Clock::now();
      Expect(e.Compact().ok(), "standalone Compact");
      const Clock::time_point t1 = Clock::now();
      span("stream.compaction", t0, t1, -1);
      compaction_us.push_back(UsBetween(t0, t1));
    }
  }
  {
    const std::string path = run_dir_ + "/replay.wal";
    s2::stream::Wal::Options options;
    options.sync_every = kWalSyncEvery;
    options.rotate_bytes = kWalRotateBytes;
    auto wal = s2::stream::Wal::Open(
        nullptr, path, [](const s2::stream::WalRecord&) { return s2::Status::OK(); },
        nullptr, options);
    if (!wal.ok()) {
      Expect(false, "replay WAL: " + wal.status().ToString());
    } else {
      std::mt19937_64 values(seed_);
      for (size_t i = 0; i < kReplayAppends; ++i) {
        ++request;
        const s2::stream::WalRecord record{static_cast<uint32_t>(values() % n),
                                           static_cast<double>(values() % 1000)};
        const Clock::time_point t0 = Clock::now();
        Expect((*wal)->Append(record).ok(), "replay WAL Append");
        const Clock::time_point t1 = Clock::now();
        span("stream.wal_append", t0, t1, -1);
        wal_append_us_.push_back(UsBetween(t0, t1));
      }
    }
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(run_dir_, ec)) {
    if (entry.path().filename().string().rfind("replay.wal", 0) == 0) {
      fs::remove(entry.path(), ec);
    }
  }

  const auto put = [this](const char* name, double value, const char* unit) {
    layers_.push_back({name, value, unit});
  };
  put("service.queue_wait_us", Median(queue_wait_us_), "us");
  put("service.exec_us", Median(exec_us_), "us");
  put("service.cache_hit_ratio",
      cache_lookups_main_ == 0
          ? 0.0
          : static_cast<double>(cache_hits_main_) / cache_lookups_main_,
      "ratio");
  put("shard.fanout", Median(fanout), "count");
  put("shard.radius_prunes", Median(prunes), "count");
  put("shard.gather_us", Median(gather), "us");
  put("shard.slowest_us", Median(slowest), "us");
  put("shard.median_us", Median(shard_median), "us");
  put("index.search_us", Median(search_us), "us");
  put("index.nodes_visited", Median(nodes), "count");
  put("index.bound_computations", Median(bounds), "count");
  put("index.full_retrievals", Median(retrievals), "count");
  put("index.examined_fraction", Median(retrievals) / static_cast<double>(n), "ratio");
  put("core.exact_scan_us", Median(exact_us), "us");
  put("approx.search_us", Median(approx_us), "us");
  put("approx.rows_scanned", Median(rows), "count");
  put("approx.candidates", Median(candidates), "count");
  put("approx.verified", Median(verified), "count");
  put("approx.summary_bytes", static_cast<double>(server_->approx_info().summary_bytes),
      "bytes");
  double recall_sum = 0.0;
  for (double r : recall) recall_sum += r;
  put("approx.recall", recall.empty() ? 0.0 : recall_sum / recall.size(), "ratio");
  put("approx.exact_share",
      recall.empty() ? 0.0 : static_cast<double>(exact_answers) / recall.size(), "ratio");
  put("dtw.search_us", Median(dtw_us), "us");
  put("dtw.lb_keogh_skips", Median(skips), "count");
  put("dtw.dtw_computed", Median(computed), "count");
  put("period.find_us", Median(period_us), "us");
  put("burst.bursts_of_us", Median(bursts_us), "us");
  put("burst.query_by_burst_us", Median(qbb_us), "us");
  put("burst.records_scanned", Median(scanned), "count");
  put("burst.table_refresh_us", Median(refresh_us), "us");
  put("burst.records", static_cast<double>(table.size()), "count");
  put("stream.engine_append_us", Median(engine_append_us_), "us");
  put("stream.wal_append_us", Median(wal_append_us_), "us");
  put("stream.compaction_us", Median(compaction_us), "us");
}

// Tracing overhead and the time no traced stage accounts for.
void Session::EmitTraceSummary() {
  const auto put = [this](const char* name, double value, const char* unit) {
    layers_.push_back({name, value, unit});
  };
  put("trace.overhead_us",
      Median(traced_headline_us_) - Median(untraced_headline_us_), "us");
  // One kSimilarTo: queue wait plus the engine call (scatter, slowest shard,
  // gather) against the untraced per-request median.
  put("trace.unattributed_knn_us",
      Median(untraced_knn_us_) - Median(knn_queue_wait_us_) - Median(knn_call_us_),
      "us");
  // One append: WAL append plus engine apply against the untraced median.
  const bool append_rounds =
      std::find(w_.round.begin(), w_.round.end(), Op::kAppend) != w_.round.end();
  const std::vector<double>& appends =
      append_rounds ? untraced_headline_us_ : append_us_;
  put("trace.unattributed_append_us",
      Median(appends) - Median(wal_append_us_) - Median(engine_append_us_), "us");
  put("trace.spans", static_cast<double>(tracer_.size()), "count");
}

}  // namespace s2bench
