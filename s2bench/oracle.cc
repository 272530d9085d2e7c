#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_set>

namespace s2bench::oracle {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kRel = 1e-9;

double Tol(double x) { return kRel * std::max(std::abs(x), 1e-3); }

bool Near(double a, double b) { return std::abs(a - b) <= Tol(b); }

std::string Fault(const std::string& what, size_t at, double got,
                  double want) {
  std::ostringstream out;
  out.precision(17);
  out << what << " at rank " << at << ": got " << got << ", oracle " << want;
  return out.str();
}

// The `want`-th smallest value of `truth` over ids other than `exclude`.
double KthSmallest(const std::vector<double>& truth, size_t want,
                   uint32_t exclude) {
  std::vector<double> sorted;
  sorted.reserve(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    if (i != exclude) sorted.push_back(truth[i]);
  }
  std::nth_element(sorted.begin(), sorted.begin() + (want - 1), sorted.end());
  return sorted[want - 1];
}

// Ids are in range, distinct and not the excluded query.
std::string CheckIds(const std::vector<Hit>& answer, size_t population,
                     uint32_t exclude) {
  std::unordered_set<uint32_t> seen;
  for (size_t r = 0; r < answer.size(); ++r) {
    const uint32_t id = answer[r].id;
    if (id >= population) return Fault("id out of range", r, id, population);
    if (id == exclude) return Fault("query returned itself", r, id, exclude);
    if (!seen.insert(id).second) return Fault("duplicate id", r, id, id);
  }
  return "";
}

}  // namespace

std::vector<double> ZNorm(const std::vector<double>& x) {
  const double n = static_cast<double>(x.size());
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= n;
  double var = 0.0;
  for (double v : x) var += (v - mean) * (v - mean);
  const double sd = std::sqrt(var / n);
  std::vector<double> z(x.size(), 0.0);
  if (sd == 0.0) return z;
  for (size_t i = 0; i < x.size(); ++i) z[i] = (x[i] - mean) / sd;
  return z;
}

std::vector<double> EuclidAll(const Rows& z, const std::vector<double>& q) {
  std::vector<double> out(z.size());
  for (size_t r = 0; r < z.size(); ++r) {
    double sum = 0.0;
    for (size_t i = 0; i < q.size(); ++i) {
      const double d = z[r][i] - q[i];
      sum += d * d;
    }
    out[r] = std::sqrt(sum);
  }
  return out;
}

namespace {

// Squared windowed DTW; returns +inf as soon as a whole DP row exceeds
// `abandon_sq`.
double DtwSq(const std::vector<double>& a, const std::vector<double>& b,
             size_t w, double abandon_sq) {
  const size_t n = a.size();
  std::vector<double> prev(n, kInf), curr(n, kInf);
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i >= w ? i - w : 0;
    const size_t hi = std::min(n - 1, i + w);
    double row_min = kInf;
    for (size_t j = lo; j <= hi; ++j) {
      const double cost = (a[i] - b[j]) * (a[i] - b[j]);
      double best = (i == 0 && j == 0) ? 0.0 : kInf;
      if (i > 0) best = std::min(best, prev[j]);
      if (j > 0) best = std::min(best, curr[j - 1]);
      if (i > 0 && j > 0) best = std::min(best, prev[j - 1]);
      curr[j] = best + cost;
      row_min = std::min(row_min, curr[j]);
    }
    if (row_min > abandon_sq) return kInf;
    std::swap(prev, curr);
    std::fill(curr.begin(), curr.end(), kInf);
  }
  return prev[n - 1];
}

}  // namespace

std::vector<double> DtwAll(const Rows& z, const std::vector<double>& q,
                           size_t window, size_t k, uint32_t exclude) {
  std::vector<double> out(z.size(), kInf);
  std::vector<double> best;  // Max-heap of the k smallest squared distances.
  for (size_t r = 0; r < z.size(); ++r) {
    if (r == exclude) continue;
    // Anything beyond the current k-th by more than the tie band can never
    // enter the final top-k or tie with its k-th.
    const double abandon =
        best.size() < k ? kInf : best.front() * (1.0 + 1e-6) + 1e-9;
    const double sq = DtwSq(q, z[r], window, abandon);
    if (sq == kInf) continue;
    out[r] = std::sqrt(sq);
    best.push_back(sq);
    std::push_heap(best.begin(), best.end());
    if (best.size() > k) {
      std::pop_heap(best.begin(), best.end());
      best.pop_back();
    }
  }
  return out;
}

std::vector<double> Periodogram(const std::vector<double>& z) {
  const size_t n = z.size();
  const double two_pi = 2.0 * std::acos(-1.0);
  // Twiddles indexed by k*t mod n keep every angle exact in [0, 2pi).
  std::vector<double> cos_table(n), sin_table(n);
  for (size_t m = 0; m < n; ++m) {
    const double angle = two_pi * static_cast<double>(m) / static_cast<double>(n);
    cos_table[m] = std::cos(angle);
    sin_table[m] = std::sin(angle);
  }
  std::vector<double> psd(n / 2 + 1);
  for (size_t k = 0; k < psd.size(); ++k) {
    double re = 0.0, im = 0.0;
    for (size_t t = 0; t < n; ++t) {
      const size_t m = (k * t) % n;
      re += z[t] * cos_table[m];
      im -= z[t] * sin_table[m];
    }
    psd[k] = (re * re + im * im) / static_cast<double>(n);
  }
  return psd;
}

double BSim(const std::vector<Region>& x, const std::vector<Region>& y) {
  double total = 0.0;
  for (const Region& a : x) {
    for (const Region& b : y) {
      const int32_t overlap =
          std::min(a.end, b.end) - std::max(a.start, b.start) + 1;
      if (overlap <= 0) continue;
      const double la = a.end - a.start + 1, lb = b.end - b.start + 1;
      const double intersect = 0.5 * (overlap / la + overlap / lb);
      total += intersect / (1.0 + std::abs(a.avg - b.avg));
    }
  }
  return total;
}

namespace {

// The parts of a k-NN answer that hold for exact and approximate answers
// alike: min(k, population) distinct ids other than the query, each with its
// true distance, in ascending order.
std::string CheckNeighbours(const std::vector<Hit>& answer,
                            const std::vector<double>& truth, size_t want,
                            uint32_t exclude) {
  if (answer.size() != want) return Fault("answer size", 0, answer.size(), want);
  if (std::string f = CheckIds(answer, truth.size(), exclude); !f.empty()) {
    return f;
  }
  for (size_t r = 0; r < answer.size(); ++r) {
    const double t = truth[answer[r].id];
    if (!Near(answer[r].score, t)) {
      return Fault("distance", r, answer[r].score, t);
    }
    if (r > 0 && answer[r].score < answer[r - 1].score - Tol(t)) {
      return Fault("order", r, answer[r].score, answer[r - 1].score);
    }
  }
  return "";
}

size_t Wanted(const std::vector<double>& truth, size_t k, uint32_t exclude) {
  return std::min(k, truth.size() - (exclude < truth.size() ? 1 : 0));
}

}  // namespace

std::string CheckKnn(const std::vector<Hit>& answer,
                     const std::vector<double>& truth, size_t k,
                     uint32_t exclude) {
  const size_t want = Wanted(truth, k, exclude);
  if (std::string f = CheckNeighbours(answer, truth, want, exclude); !f.empty()) {
    return f;
  }
  const double kth = KthSmallest(truth, want, exclude);
  for (size_t r = 0; r < answer.size(); ++r) {
    const double t = truth[answer[r].id];
    if (t > kth + Tol(kth)) return Fault("not in top-k", r, t, kth);
  }
  std::unordered_set<uint32_t> returned;
  for (const Hit& h : answer) returned.insert(h.id);
  for (size_t i = 0; i < truth.size(); ++i) {
    if (i != exclude && truth[i] < kth - Tol(kth) &&
        returned.count(static_cast<uint32_t>(i)) == 0) {
      return Fault("missed true neighbour", i, truth[i], kth);
    }
  }
  return "";
}

std::string CheckApprox(const std::vector<Hit>& answer,
                        const std::vector<double>& truth, size_t k,
                        uint32_t exclude, bool guaranteed_exact,
                        double epsilon) {
  if (guaranteed_exact) return CheckKnn(answer, truth, k, exclude);
  const size_t want = Wanted(truth, k, exclude);
  if (std::string f = CheckNeighbours(answer, truth, want, exclude); !f.empty()) {
    return f;
  }
  if (std::isfinite(epsilon)) {
    const double kth = KthSmallest(truth, want, exclude);
    const double limit = (1.0 + epsilon) * kth;
    if (answer.back().score > limit + Tol(limit)) {
      return Fault("k-th distance beyond (1+eps) bound", want - 1,
                   answer.back().score, limit);
    }
  }
  return "";
}

std::string CheckPeriods(const std::vector<Period>& answer,
                         const std::vector<double>& raw, double p,
                         double max_period_fraction) {
  const std::vector<double> psd = Periodogram(ZNorm(raw));
  double mean = 0.0;
  for (size_t b = 1; b < psd.size(); ++b) mean += psd[b];
  mean /= static_cast<double>(psd.size() - 1);
  const double threshold = -mean * std::log(p);
  const double band = 1e-7 * threshold;
  const double n = static_cast<double>(raw.size());
  const auto period_ok = [&](size_t bin) {
    return max_period_fraction <= 0.0 ||
           n / static_cast<double>(bin) <= max_period_fraction * n;
  };
  std::unordered_set<size_t> reported;
  for (size_t r = 0; r < answer.size(); ++r) {
    const size_t bin = answer[r].bin;
    if (bin == 0 || bin >= psd.size()) return Fault("bin", r, bin, psd.size());
    if (!reported.insert(bin).second) return Fault("duplicate bin", r, bin, bin);
    if (std::abs(answer[r].power - psd[bin]) > 1e-7 * psd[bin] + 1e-9) {
      return Fault("power", r, answer[r].power, psd[bin]);
    }
    if (psd[bin] <= threshold - band) {
      return Fault("bin below T_p", r, psd[bin], threshold);
    }
    if (!period_ok(bin)) return Fault("period too long", r, bin, n);
    if (r > 0 && answer[r].power > answer[r - 1].power) {
      return Fault("order", r, answer[r].power, answer[r - 1].power);
    }
  }
  for (size_t bin = 1; bin < psd.size(); ++bin) {
    if (psd[bin] > threshold + band && period_ok(bin) &&
        reported.count(bin) == 0) {
      return Fault("missed significant bin", bin, psd[bin], threshold);
    }
  }
  return "";
}

std::string CheckBursts(const std::vector<Region>& answer,
                        const std::vector<double>& raw, int32_t start_day,
                        const BurstRule& rule) {
  const std::vector<double> z = ZNorm(raw);
  const size_t n = z.size();
  std::vector<double> ma(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i + 1 >= rule.window ? i + 1 - rule.window : 0;
    double sum = 0.0;
    for (size_t j = lo; j <= i; ++j) sum += z[j];
    ma[i] = sum / static_cast<double>(i - lo + 1);
  }
  double mean = 0.0;
  for (double v : ma) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double v : ma) var += (v - mean) * (v - mean);
  const double cutoff = mean + rule.cutoff_stds * std::sqrt(var / n);
  const double tol = 1e-9 * std::max(1.0, std::abs(cutoff));

  std::vector<int> region_of(n, -1);
  int64_t prev_end = -2;
  for (size_t r = 0; r < answer.size(); ++r) {
    const int64_t s = answer[r].start - start_day;
    const int64_t e = answer[r].end - start_day;
    if (s < 0 || e < s || e >= static_cast<int64_t>(n)) {
      return Fault("region outside the window", r, answer[r].start, start_day);
    }
    if (s <= prev_end + 1) return Fault("regions overlap or touch", r, s, prev_end);
    prev_end = e;
    if (e - s + 1 < rule.min_length) return Fault("region too short", r, e - s + 1, rule.min_length);
    double sum = 0.0;
    for (int64_t i = s; i <= e; ++i) {
      if (ma[i] <= cutoff - tol) {
        return Fault("burst day not above the MA cutoff", r, ma[i], cutoff);
      }
      region_of[i] = static_cast<int>(r);
      sum += z[i];
    }
    const double avg = sum / static_cast<double>(e - s + 1);
    if (std::abs(answer[r].avg - avg) > 1e-9 * std::max(1.0, std::abs(avg))) {
      return Fault("region average", r, answer[r].avg, avg);
    }
    if (avg < rule.min_avg_value - 1e-9) {
      return Fault("region below the minimum height", r, avg, rule.min_avg_value);
    }
  }
  // Every clean run of days above the cutoff is reported exactly when it
  // passes the detector's length and height filters. Runs with a day within
  // the tolerance of the cutoff have an ambiguous extent and are skipped.
  for (size_t i = 0; i < n;) {
    if (ma[i] <= cutoff) {
      ++i;
      continue;
    }
    size_t j = i;
    double sum = 0.0;
    bool clean = i == 0 || ma[i - 1] < cutoff - tol;
    while (j < n && ma[j] > cutoff) {
      clean = clean && ma[j] > cutoff + tol;
      sum += z[j];
      ++j;
    }
    clean = clean && (j == n || ma[j] < cutoff - tol);
    const int32_t length = static_cast<int32_t>(j - i);
    const double avg = sum / length;
    if (clean && std::abs(avg - rule.min_avg_value) > 1e-9) {
      const bool kept = length >= rule.min_length && avg >= rule.min_avg_value;
      const int r = region_of[i];
      const bool reported = r >= 0 && answer[r].start - start_day == static_cast<int64_t>(i) &&
                            answer[r].end - start_day == static_cast<int64_t>(j - 1);
      if (kept && !reported) return Fault("missed burst run", i, ma[i], cutoff);
      if (!kept && r >= 0) return Fault("reported a filtered run", i, avg, rule.min_avg_value);
    }
    i = j;
  }
  return "";
}

std::string CheckQueryByBurst(const std::vector<Hit>& answer,
                              const std::vector<double>& scores, size_t k,
                              uint32_t exclude) {
  size_t positive = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (i != exclude && scores[i] > 0.0) ++positive;
  }
  const size_t want = k == 0 ? positive : std::min(k, positive);
  if (answer.size() != want) return Fault("answer size", 0, answer.size(), want);
  if (want == 0) return "";
  if (std::string f = CheckIds(answer, scores.size(), exclude); !f.empty()) {
    return f;
  }
  // The want-th largest score, via negation.
  std::vector<double> negated(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) negated[i] = -scores[i];
  const double kth = -KthSmallest(negated, want, exclude);
  for (size_t r = 0; r < answer.size(); ++r) {
    const double s = scores[answer[r].id];
    if (!Near(answer[r].score, s)) return Fault("bsim", r, answer[r].score, s);
    if (r > 0 && answer[r].score > answer[r - 1].score + Tol(s)) {
      return Fault("order", r, answer[r].score, answer[r - 1].score);
    }
    if (s < kth - Tol(kth)) return Fault("not in top-k", r, s, kth);
  }
  std::unordered_set<uint32_t> returned;
  for (const Hit& h : answer) returned.insert(h.id);
  for (size_t i = 0; i < scores.size(); ++i) {
    if (i != exclude && scores[i] > kth + Tol(kth) &&
        returned.count(static_cast<uint32_t>(i)) == 0) {
      return Fault("missed match", i, scores[i], kth);
    }
  }
  return "";
}

}  // namespace s2bench::oracle
