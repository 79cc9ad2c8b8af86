#pragma once

// Brute-force weighted k-NN over the public signal_distance(): the oracle
// the interned FingerprintDatabase::estimate() must match bit for bit
// (test_wifi) and the baseline its speed is gated against
// (bench_fig1_pipeline, scripts/knn_gate.sh).

#include "perpos/wifi/fingerprint.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

namespace perpos::wifi::oracle {

/// signal_distance() to every fingerprint, then the same partial_sort,
/// comparator and inverse-distance weighting as estimate().
inline std::optional<LocalPosition> estimate(const FingerprintDatabase& db,
                                             const RssiScan& scan,
                                             const KnnConfig& config = {}) {
  if (scan.readings.empty() || db.size() == 0 || config.k == 0) {
    return std::nullopt;
  }
  std::vector<std::pair<double, const Fingerprint*>> ranked;
  ranked.reserve(db.size());
  for (const Fingerprint& fp : db.fingerprints()) {
    ranked.emplace_back(FingerprintDatabase::signal_distance(
                            scan, fp.readings, config.missing_rssi_dbm),
                        &fp);
  }
  const std::size_t k = std::min(config.k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end(),
                    [](const auto& a, const auto& b) {
                      return a.first < b.first;
                    });
  double wx = 0.0, wy = 0.0, wsum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double w = 1.0 / (ranked[i].first + 0.1);
    wx += w * ranked[i].second->position.x;
    wy += w * ranked[i].second->position.y;
    wsum += w;
  }
  LocalPosition out;
  out.point = {wx / wsum, wy / wsum};
  out.timestamp = scan.timestamp;
  double spread_sq = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const LocalPoint& p = ranked[i].second->position;
    const double dx = p.x - out.point.x;
    const double dy = p.y - out.point.y;
    spread_sq += dx * dx + dy * dy;
  }
  out.accuracy_m = std::sqrt(spread_sq / static_cast<double>(k)) + 1.0;
  return out;
}

}  // namespace perpos::wifi::oracle
