#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

/// \file stats.hpp
/// Order statistics shared by the driver and the kernel replays.

namespace perfbench {

/// Percentile `q` (0..1) of `values`, linearly interpolated between the
/// two nearest ranks; 0 when there are none.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

}  // namespace perfbench
