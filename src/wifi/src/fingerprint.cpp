#include "perpos/wifi/fingerprint.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace perpos::wifi {

FingerprintDatabase FingerprintDatabase::survey(const SignalModel& model,
                                                const Building& building,
                                                double grid_m,
                                                int surveys_per_point,
                                                perpos::sim::Random* random) {
  FingerprintDatabase db;
  db.set_frame_id(building.name());
  const geo::LocalBox& box = building.footprint();
  for (double y = box.min_y + grid_m / 2.0; y < box.max_y; y += grid_m) {
    for (double x = box.min_x + grid_m / 2.0; x < box.max_x; x += grid_m) {
      const LocalPoint p{x, y};
      if (!building.inside_footprint(p)) continue;

      Fingerprint fp;
      fp.position = p;
      if (surveys_per_point > 0 && random != nullptr) {
        // Average several noisy scans per point.
        std::map<std::string, std::pair<double, int>> acc;
        for (int s = 0; s < surveys_per_point; ++s) {
          const RssiScan scan =
              model.scan_at(p, *random, perpos::sim::SimTime::zero());
          for (const RssiReading& r : scan.readings) {
            auto& [sum, count] = acc[r.ap_id];
            sum += r.rssi_dbm;
            ++count;
          }
        }
        for (const auto& [ap, sc] : acc) {
          fp.readings.push_back(
              RssiReading{ap, sc.first / static_cast<double>(sc.second)});
        }
      } else {
        const RssiScan scan =
            model.ideal_scan_at(p, perpos::sim::SimTime::zero());
        fp.readings = scan.readings;
      }
      if (!fp.readings.empty()) db.add(std::move(fp));
    }
  }
  return db;
}

void FingerprintDatabase::add(Fingerprint fp) {
  const std::size_t f = fingerprints_.size();
  // Every AP row gains a cell for the new fingerprint; a new row starts
  // with an empty cell for every fingerprint so far.
  for (std::vector<double>& row : rssi_) row.push_back(0.0);
  for (std::vector<std::uint8_t>& row : present_) row.push_back(0);
  std::vector<IndexedReading>& indexed = indexed_.emplace_back();
  indexed.reserve(fp.readings.size());
  for (const RssiReading& r : fp.readings) {
    std::uint32_t ap = find_ap(r.ap_id);
    if (ap == kUnknownAp) {
      ap = static_cast<std::uint32_t>(ap_ids_.size());
      ap_ids_.push_back(r.ap_id);
      rssi_.emplace_back(f + 1, 0.0);
      present_.emplace_back(f + 1, 0);
    }
    indexed.push_back({ap, r.rssi_dbm});
    // The first reading of an AP is its lookup value, as in
    // signal_distance().
    if (present_[ap][f] == 0) {
      present_[ap][f] = 1;
      rssi_[ap][f] = r.rssi_dbm;
    }
  }
  fingerprints_.push_back(std::move(fp));
}

std::uint32_t FingerprintDatabase::find_ap(
    const std::string& ap_id) const noexcept {
  for (std::size_t i = 0; i < ap_ids_.size(); ++i) {
    if (ap_ids_[i] == ap_id) return static_cast<std::uint32_t>(i);
  }
  return kUnknownAp;
}

double FingerprintDatabase::signal_distance(
    const RssiScan& scan, const std::vector<RssiReading>& reference,
    double missing_rssi_dbm) {
  double sum_sq = 0.0;
  std::size_t dims = 0;

  for (const RssiReading& s : scan.readings) {
    double ref = missing_rssi_dbm;
    for (const RssiReading& r : reference) {
      if (r.ap_id == s.ap_id) {
        ref = r.rssi_dbm;
        break;
      }
    }
    const double d = s.rssi_dbm - ref;
    sum_sq += d * d;
    ++dims;
  }
  // APs present in the reference but missing from the scan.
  for (const RssiReading& r : reference) {
    if (scan.find(r.ap_id) != nullptr) continue;
    const double d = missing_rssi_dbm - r.rssi_dbm;
    sum_sq += d * d;
    ++dims;
  }
  return dims == 0 ? std::numeric_limits<double>::infinity()
                   : std::sqrt(sum_sq / static_cast<double>(dims));
}

std::optional<LocalPosition> FingerprintDatabase::estimate(
    const RssiScan& scan, const KnnConfig& config) const {
  if (scan.readings.empty() || fingerprints_.empty() || config.k == 0) {
    return std::nullopt;
  }
  const double missing = config.missing_rssi_dbm;
  const std::size_t n = fingerprints_.size();

  // signal_distance() for every fingerprint at once: each scan term is
  // swept across all fingerprints before the next, so every fingerprint's
  // sum takes its terms in the same order and rounds identically.
  std::vector<double> sum_sq(n, 0.0);
  std::vector<std::uint8_t> heard(ap_ids_.size(), 0);

  // Scan terms, in scan order, each against the fingerprint's first
  // reading of the AP (the scan's ids are interned here, once).
  for (const RssiReading& s : scan.readings) {
    const std::uint32_t ap = find_ap(s.ap_id);
    if (ap == kUnknownAp) {
      const double d = s.rssi_dbm - missing;
      for (std::size_t f = 0; f < n; ++f) sum_sq[f] += d * d;
      continue;
    }
    heard[ap] = 1;
    const double* rssi = rssi_[ap].data();
    const std::uint8_t* present = present_[ap].data();
    for (std::size_t f = 0; f < n; ++f) {
      const double d = s.rssi_dbm - (present[f] != 0 ? rssi[f] : missing);
      sum_sq[f] += d * d;
    }
  }

  // Then each fingerprint's readings of APs the scan lacks, in its
  // reading order.
  std::vector<std::pair<double, const Fingerprint*>> ranked;
  ranked.reserve(n);
  for (std::size_t f = 0; f < n; ++f) {
    double sum = sum_sq[f];
    std::size_t dims = scan.readings.size();
    for (const IndexedReading& r : indexed_[f]) {
      if (heard[r.ap] != 0) continue;
      const double d = missing - r.rssi_dbm;
      sum += d * d;
      ++dims;
    }
    ranked.emplace_back(std::sqrt(sum / static_cast<double>(dims)),
                        &fingerprints_[f]);
  }
  const std::size_t k = std::min(config.k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end(),
                    [](const auto& a, const auto& b) {
                      return a.first < b.first;
                    });

  // Inverse-distance weighted centroid of the k nearest fingerprints.
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

  // Accuracy: RMS spread of the neighbours around the estimate.
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

}  // namespace perpos::wifi
