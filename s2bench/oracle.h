// Independent oracle for the end-to-end benchmark.
//
// Plain-loop reference implementations of every answer the server gives,
// written without s2::simd, s2::index or any other part of the library, so a
// fault in a shared kernel cannot make the system and its judge agree. The
// checkers compare a system answer with the oracle's and return an empty
// string when it is right, otherwise a one-line description of the fault.
//
// Distances are compared within a relative 1e-9, not bitwise: an exact path
// that sums in another order (the tree, the scan, a future vectorised scan)
// differs in the last bits and is still correct. Ids must match except where
// the oracle's own distances tie within that tolerance.

#ifndef S2BENCH_ORACLE_H_
#define S2BENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace s2bench::oracle {

/// One ranked answer: a neighbour with its distance, or a query-by-burst
/// match with its BSim score.
struct Hit {
  uint32_t id = 0;
  double score = 0.0;
};

/// A burst triplet in absolute days.
struct Region {
  int32_t start = 0;
  int32_t end = 0;
  double avg = 0.0;
};

/// A reported significant period: its periodogram bin and power.
struct Period {
  size_t bin = 0;
  double power = 0.0;
};

using Rows = std::vector<std::vector<double>>;

/// z-normalisation with the population standard deviation; a constant
/// sequence maps to zeros.
std::vector<double> ZNorm(const std::vector<double>& x);

/// Euclidean distance from `q` to every row.
std::vector<double> EuclidAll(const Rows& z, const std::vector<double>& q);

/// Sakoe-Chiba windowed DTW distance from `q` to every row (`exclude`
/// skipped and set to +inf). Rows that provably fall outside the best `k`
/// by more than the tie tolerance are abandoned and also read +inf, which no
/// correct answer can contain.
std::vector<double> DtwAll(const Rows& z, const std::vector<double>& q,
                           size_t window, size_t k, uint32_t exclude);

/// Direct O(n^2) unitary DFT periodogram of `z`, bins 0..n/2.
std::vector<double> Periodogram(const std::vector<double>& z);

/// BSim of two burst sets (the paper's Section 6.3 measure).
double BSim(const std::vector<Region>& x, const std::vector<Region>& y);

/// Exact k-NN answer against the true distance of every id.
std::string CheckKnn(const std::vector<Hit>& answer,
                     const std::vector<double>& truth, size_t k,
                     uint32_t exclude);

/// Approximate answer against its quality bound: a guaranteed-exact answer
/// must pass `CheckKnn`; otherwise every returned distance must be the true
/// one and the k-th may exceed the true k-th by at most (1 + epsilon).
std::string CheckApprox(const std::vector<Hit>& answer,
                        const std::vector<double>& truth, size_t k,
                        uint32_t exclude, bool guaranteed_exact,
                        double epsilon);

/// Reported periods against the bins whose direct-periodogram power clears
/// the exponential threshold T_p = -mean(P) ln(p), periods up to
/// `max_period_fraction` of the length.
std::string CheckPeriods(const std::vector<Period>& answer,
                         const std::vector<double>& raw, double p,
                         double max_period_fraction);

/// The moving-average burst rule (paper Section 6.1) with the detector's
/// region filters.
struct BurstRule {
  size_t window = 30;
  double cutoff_stds = 1.5;
  double min_avg_value = 0.0;
  int32_t min_length = 1;
};

/// Reported bursts against the trailing moving-average cutoff
/// mean(MA) + x std(MA): every reported day is above it, each region's
/// average is the mean standardized value over its days, and every run of
/// days clearly above the cutoff is reported exactly when it passes the
/// rule's length and height filters.
std::string CheckBursts(const std::vector<Region>& answer,
                        const std::vector<double>& raw, int32_t start_day,
                        const BurstRule& rule);

/// Query-by-burst answer against the brute-force BSim score of every id
/// (0 = no overlapping burst): top `k` by (score desc, id asc).
std::string CheckQueryByBurst(const std::vector<Hit>& answer,
                              const std::vector<double>& scores, size_t k,
                              uint32_t exclude);

}  // namespace s2bench::oracle

#endif  // S2BENCH_ORACLE_H_
