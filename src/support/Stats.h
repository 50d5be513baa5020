//===- support/Stats.h - Benchmark statistics -------------------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Medians, means, geometric means, and 95% confidence intervals for the
/// benchmark reports: st-bench reports the median of a cell's trials, the
/// paper's tables take geometric means across programs (§5.2), and the
/// Appendix A confidence intervals come from ciHalfWidth95.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_SUPPORT_STATS_H
#define SMARTTRACK_SUPPORT_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace st {

/// The middle value (the mean of the middle two for an even count); 0
/// for no samples.
inline double median(std::vector<double> Xs) {
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  if (N == 0)
    return 0;
  return N % 2 ? Xs[N / 2] : (Xs[N / 2 - 1] + Xs[N / 2]) / 2;
}

inline double mean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0.0;
  double Sum = 0;
  for (double X : Xs)
    Sum += X;
  return Sum / static_cast<double>(Xs.size());
}

inline double geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0.0;
  double LogSum = 0;
  for (double X : Xs)
    LogSum += std::log(std::max(X, 1e-12));
  return std::exp(LogSum / static_cast<double>(Xs.size()));
}

/// Two-sided 95% Student-t critical value for N samples (N-1 dof).
inline double tCritical95(size_t N) {
  static const double Table[] = {0,     0,     12.706, 4.303, 3.182, 2.776,
                                 2.571, 2.447, 2.365,  2.306, 2.262, 2.228,
                                 2.201, 2.179, 2.160,  2.145, 2.131, 2.120,
                                 2.110, 2.101, 2.093,  2.086, 2.080, 2.074,
                                 2.069, 2.064, 2.060,  2.056, 2.052, 2.048,
                                 2.045};
  if (N < 2)
    return 0.0;
  if (N <= 30)
    return Table[N];
  return 1.96;
}

/// Half-width of the 95% confidence interval of the mean.
inline double ciHalfWidth95(const std::vector<double> &Xs) {
  size_t N = Xs.size();
  if (N < 2)
    return 0.0;
  double M = mean(Xs), Var = 0;
  for (double X : Xs)
    Var += (X - M) * (X - M);
  Var /= static_cast<double>(N - 1);
  return tCritical95(N) * std::sqrt(Var / static_cast<double>(N));
}

} // namespace st

#endif // SMARTTRACK_SUPPORT_STATS_H
