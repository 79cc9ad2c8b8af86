#pragma once

#include "perpos/locmodel/resolver.hpp"
#include "perpos/wifi/signal_model.hpp"

#include <cstdint>
#include <vector>

/// \file fingerprint.hpp
/// Fingerprint-based WiFi positioning: an offline database of reference
/// RSSI vectors on a grid, and a weighted k-nearest-neighbour estimator in
/// signal space. This is the reproduction of the "indoor WiFi positioning
/// system" the paper's Room Number Application queries.

namespace perpos::wifi {

using locmodel::LocalPosition;

/// One calibration point: where it was taken and the mean RSSI per AP.
struct Fingerprint {
  LocalPoint position;
  std::vector<RssiReading> readings;
};

struct KnnConfig {
  /// Number of nearest fingerprints averaged. With k == 0 no neighbour
  /// contributes, so estimate() returns nullopt (a WifiPositioner counts
  /// it in failed()). A k larger than the database uses every fingerprint.
  std::size_t k = 4;
  /// RSSI assumed for an AP present in one vector but not the other —
  /// treating "not heard" as a very weak signal.
  double missing_rssi_dbm = -95.0;
};

class FingerprintDatabase {
 public:
  /// Survey the building on a regular grid with spacing `grid_m`, storing
  /// the model's mean RSSI at each point inside the footprint. With
  /// `surveys_per_point` > 0 and a random source, noisy surveys are
  /// averaged instead (a more realistic offline phase).
  static FingerprintDatabase survey(const SignalModel& model,
                                    const Building& building, double grid_m,
                                    int surveys_per_point = 0,
                                    perpos::sim::Random* random = nullptr);

  /// Appends `fp` and interns its AP ids into the estimator's index.
  void add(Fingerprint fp);
  const std::vector<Fingerprint>& fingerprints() const noexcept {
    return fingerprints_;
  }
  std::size_t size() const noexcept { return fingerprints_.size(); }

  /// The coordinate frame the fingerprint positions are expressed in —
  /// the surveyed building's name. survey() sets it; hand-built databases
  /// may set it explicitly. Consumed by WifiPositioner::output_frame() so
  /// the static analyzer can catch cross-building datum mixups (PPV007).
  const std::string& frame_id() const noexcept { return frame_id_; }
  void set_frame_id(std::string frame_id) { frame_id_ = std::move(frame_id); }

  /// Weighted k-NN estimate in signal space. Returns nullopt for an empty
  /// scan, an empty database or `config.k == 0`. `accuracy_m` of the
  /// result is the spread of the contributing neighbours. Bit-identical to
  /// ranking fingerprints() by signal_distance(); safe to call from many
  /// threads at once (it reads the index, never fills it).
  std::optional<LocalPosition> estimate(const RssiScan& scan,
                                        const KnnConfig& config = {}) const;

  /// Euclidean distance between RSSI vectors with missing-AP substitution:
  /// the scan's readings in scan order (each against the first reference
  /// reading of its AP), then the reference readings whose AP the scan
  /// lacks, in reference order.
  static double signal_distance(const RssiScan& scan,
                                const std::vector<RssiReading>& reference,
                                double missing_rssi_dbm);

 private:
  static constexpr std::uint32_t kUnknownAp = UINT32_MAX;

  /// Dense index of `ap_id`, or kUnknownAp if no fingerprint lists it.
  std::uint32_t find_ap(const std::string& ap_id) const noexcept;

  std::vector<Fingerprint> fingerprints_;
  std::string frame_id_;

  // Interned index, built eagerly by add() and only read by estimate().
  struct IndexedReading {
    std::uint32_t ap;  ///< Index into ap_ids_.
    double rssi_dbm;
  };
  std::vector<std::string> ap_ids_;  ///< AP index -> id, first-seen order.
  /// Row = AP index, one cell per fingerprint: the fingerprint's first
  /// reading of that AP, and 1 where the fingerprint lists the AP at all.
  std::vector<std::vector<double>> rssi_;
  std::vector<std::vector<std::uint8_t>> present_;
  /// Per fingerprint: its readings, interned, in their original order.
  std::vector<std::vector<IndexedReading>> indexed_;
};

}  // namespace perpos::wifi
