#pragma once

#include "perpos/sensors/trajectory.hpp"
#include "perpos/sim/clock.hpp"
#include "perpos/wifi/scan.hpp"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file inputs.hpp
/// Seeded input generation for the fleet benchmark. Everything a device
/// replays — its ground-truth walk and the sensor data of every epoch — is
/// derived from the workload seed and the device index, before any timed
/// phase starts, so the middleware only ever sees generated inputs.

namespace perfbench {

/// Which of the paper's pipelines a workload runs.
enum class Pipeline { kGpsFleet, kWifiRooms, kPfTracking };

/// The sizes and traffic properties of one workload (read from
/// workloads.json by run.py and passed on the command line).
struct WorkloadConfig {
  std::string name;
  Pipeline pipeline = Pipeline::kGpsFleet;
  int devices = 1;
  int epochs = 1;             ///< Epochs per device in every pass.
  double rate = 1.0;          ///< Open-loop offered rate, epochs/s (fleet).
  int swap_period = 64;       ///< Hot-swap before every Nth epoch of a device.
  double outage_share = 0.0;  ///< Share of walking time in GPS outages.
  int indoor_every = 0;       ///< Every Nth device never leaves the indoors.
  int particles = 500;
  bool metrics = false;       ///< Metrics-only observability on the graphs.
};

/// Everything one device replays: its ground-truth walk and the sensor
/// data of every epoch, stored compactly (a device driver would hand the
/// middleware raw bytes or a scan; boxing them is the middleware's work).
struct DeviceInputs {
  perpos::sensors::Trajectory walk;
  std::vector<perpos::sim::SimTime> times;  ///< Per epoch.
  /// GPS pipelines: every epoch's raw NMEA fragments, concatenated. Epoch
  /// k owns fragments [first_fragment[k], first_fragment[k + 1]); fragment
  /// f ends at fragment_end[f].
  std::string bytes;
  std::vector<std::uint32_t> fragment_end;
  std::vector<std::uint32_t> first_fragment;
  std::vector<perpos::wifi::RssiScan> scans;  ///< WiFi pipeline, per epoch.

  std::size_t epochs() const noexcept { return times.size(); }
  std::string_view fragment(std::size_t f) const noexcept {
    const std::uint32_t begin = f == 0 ? 0 : fragment_end[f - 1];
    return std::string_view(bytes).substr(begin, fragment_end[f] - begin);
  }
};

/// Deterministic per-device seed.
std::uint64_t device_seed(std::uint64_t seed, int device);

/// Generate the inputs of every device (in parallel over `threads`
/// threads; the result depends only on the config and the seed).
std::vector<DeviceInputs> generate_inputs(const WorkloadConfig& config,
                                          std::uint64_t seed,
                                          unsigned threads);

}  // namespace perfbench
