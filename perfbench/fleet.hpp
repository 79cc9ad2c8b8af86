#pragma once

#include "inputs.hpp"
#include "spans.hpp"

#include "perpos/core/channel.hpp"
#include "perpos/core/components.hpp"
#include "perpos/core/positioning.hpp"
#include "perpos/exec/engine.hpp"
#include "perpos/fusion/features.hpp"
#include "perpos/locmodel/building.hpp"
#include "perpos/reconfig/live_reconfigurator.hpp"
#include "perpos/runtime/distribution.hpp"
#include "perpos/sim/network.hpp"
#include "perpos/wifi/fingerprint.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

/// \file fleet.hpp
/// One positioning graph per tracked device, each on its own engine lane,
/// driven from one generator thread — the system under test.

namespace perfbench {

/// Slices (closed-loop bursts, open-loop segments) per pass. Every figure
/// is taken over the slices, so one stall of a shared host moves one slice.
constexpr int kRounds = 40;

/// kRounds, or one slice per epoch when a device has fewer (tiny sizes).
inline int pass_rounds(const WorkloadConfig& config) {
  return std::min(kRounds, config.epochs);
}

struct FleetOptions {
  bool metrics = false;    ///< Metrics-only observability on every graph.
  bool probes = false;     ///< Attach the probe feature (traced runs).
  int trace_every = 16;    ///< Record spans for one epoch in N per device.
  bool score = false;      ///< Score every fix against the walk.
  bool corrupt = false;    ///< Self-test: corrupt one transcript entry.
};

/// Sample time of a device graph, set by the lane before each epoch.
class EpochClock final : public perpos::sim::Clock {
 public:
  perpos::sim::SimTime now() const noexcept override { return now_; }
  void set(perpos::sim::SimTime t) noexcept { now_ = t; }

 private:
  perpos::sim::SimTime now_;
};

struct Latency {
  std::int64_t due_ns;
  float us;
};

/// A delivered fix, kept until it is scored against the ground-truth walk.
struct FixPoint {
  perpos::sim::SimTime timestamp;
  double x;
  double y;
};

/// One tracked device: its graph, lane and listener-side bookkeeping.
/// While a pass runs, the state below `lane` is written by the lane's tasks
/// only, except the per-epoch vectors and `open_loop`, which the generator
/// writes before it posts the epochs that read them; the generator reads
/// the rest once the engine is idle.
struct Device {
  Device(int index, const DeviceInputs& inputs)
      : index(index), inputs(inputs), spans(static_cast<std::uint32_t>(index) + 1) {}
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  int index;
  const DeviceInputs& inputs;
  const FleetOptions* options = nullptr;
  const perpos::locmodel::Building* building = nullptr;

  EpochClock clock;
  std::unique_ptr<perpos::sim::Scheduler> scheduler;
  std::unique_ptr<perpos::sim::Random> network_random;
  std::unique_ptr<perpos::sim::Network> network;
  std::unique_ptr<perpos::sim::Random> filter_random;
  std::unique_ptr<perpos::core::ProcessingGraph> graph;
  std::unique_ptr<perpos::runtime::DistributedDeployment> deployment;
  std::unique_ptr<perpos::core::ChannelManager> channels;
  std::unique_ptr<perpos::core::PositioningService> service;
  std::unique_ptr<perpos::reconfig::LiveReconfigurator> reconfigurator;
  std::shared_ptr<perpos::core::SourceComponent> source;
  perpos::core::ComponentId swap_target = perpos::core::kInvalidComponent;
  perpos::sim::HostId mobile = 0;
  perpos::sim::HostId server = 0;
  perpos::exec::LaneId lane = 0;

  // Listener transcript: an FNV-1a hash over (timestamp, local x, local y,
  // room) of every delivered fix, in delivery order.
  std::uint64_t hash = 1469598103934665603ull;
  std::uint64_t fixes = 0;
  std::uint64_t epochs_done = 0;
  /// Scored passes: fixes of the current burst, scored once it has ended.
  std::vector<FixPoint> unscored;
  double squared_error = 0.0;

  // Per epoch, written by the generator before it posts the epoch (so the
  // posted closure stays small enough for std::function to hold inline).
  std::vector<std::int64_t> due_ns;       ///< When the epoch was due.
  std::vector<std::uint64_t> post_span;   ///< Its post span (traced runs).
  bool open_loop = false;                 ///< Set by the pass before posting.

  // State of the epoch in flight.
  std::int64_t current_due_ns = 0;
  /// Open loop: every fix's due time and due-time-to-listener latency.
  std::vector<Latency> latencies;

  // Traced runs only.
  SpanBuffer spans;
  bool sampled = false;
  std::uint64_t trace_id = 0;
  std::uint64_t enclosing_span = 0;
  std::uint64_t open_component = 0;
  std::int64_t busy_ns = 0;
  std::vector<float> queue_wait_us;
  std::vector<std::uint64_t> probe_counts;  ///< Per component kind.
  std::uint64_t sampled_deliveries = 0;
  std::int64_t sampled_graph_ns = 0;  ///< push + run_all, sampled epochs.
  std::vector<float> graph_us;        ///< push + run_all per sampled epoch.
  std::vector<std::vector<perpos::core::Sample>> recorded;  ///< Per kind.
};

/// What one pass measured (accumulated over its rounds or segments).
struct PassStats {
  double wall_s = 0.0;
  std::uint64_t epochs = 0;
  std::vector<double> round_rates;  ///< Epochs/s of every burst.
  double cpu_s = 0.0;               ///< Process CPU time inside the bursts.
  double rss_growth_bytes = 0.0;    ///< RSS change inside the bursts.
  std::vector<double> replace_us;
  std::vector<std::size_t> round_ends;  ///< replace_us size after each round.
  std::vector<double> lag_us;
  std::uint64_t backlog_end = 0;    ///< Largest backlog at a segment's end.
  std::uint64_t swaps = 0;
  std::uint64_t swap_failures = 0;
};

class Fleet {
 public:
  /// Setup: the building model, the WiFi survey, one graph per device
  /// (assembly, deployment, provider), and one primed reconfigurator each.
  Fleet(const WorkloadConfig& config, const std::vector<DeviceInputs>& inputs,
        perpos::exec::ExecutionEngine& engine, FleetOptions options);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// The epochs of every device are cut into pass_rounds() consecutive
  /// slices. Closed loop, one burst: slice r of every device is posted lane
  /// by lane, then the engine drains to idle. With zero workers this is the
  /// inline reference.
  void run_round(int r, PassStats& stats);

  /// Open loop, one segment: slice s offered round-robin over the devices
  /// at `rate` epochs/s regardless of progress, each epoch stamped with
  /// its due time; then the engine drains.
  void run_segment(int s, double rate, PassStats& stats);

  const std::vector<std::unique_ptr<Device>>& devices() const noexcept {
    return devices_;
  }
  const perpos::locmodel::Building& building() const noexcept {
    return building_;
  }
  const perpos::wifi::FingerprintDatabase* database() const noexcept {
    return database_.get();
  }
  const SpanBuffer& generator_spans() const noexcept { return generator_; }
  /// Component ids of the channel feeding the particle filter (device 0).
  const std::unordered_set<perpos::core::ComponentId>& channel_members() const
      noexcept {
    return channel_members_;
  }
  /// Device 0's Likelihood channel feature (pf_tracking), else nullptr.
  perpos::fusion::HdopLikelihoodFeature* likelihood() const noexcept {
    return likelihood_;
  }

  /// Sum of graph deliveries over all devices.
  std::uint64_t deliveries() const;
  /// Remote data messages and wire bytes over all devices.
  std::uint64_t wire_messages() const;
  std::uint64_t wire_bytes() const;
  /// RemoteIngress decode failures over all devices.
  std::uint64_t decode_failures() const;
  /// Particle-filter resamples and updates over all devices.
  std::uint64_t resamples() const;
  std::uint64_t filter_updates() const;

 private:
  /// Slice r is [slice_begin(r), slice_begin(r + 1)).
  int slice_begin(int r) const;
  void build_device(Device& device);
  void attach_probes(Device& device);
  /// Post epoch `k` of `device` (with its post span when sampled).
  void post_epoch(Device& device, int k, std::int64_t due_ns);
  /// Hot-swap before epoch `k` when the swap period says so.
  void maybe_swap(Device& device, int k, PassStats& stats);
  /// Add every unscored fix's squared error against its device's walk.
  void score_fixes();

  const WorkloadConfig& config_;
  const std::vector<DeviceInputs>& inputs_;
  perpos::exec::ExecutionEngine& engine_;
  FleetOptions options_;
  perpos::locmodel::Building building_;
  std::unique_ptr<perpos::wifi::SignalModel> signal_;
  std::unique_ptr<perpos::wifi::FingerprintDatabase> database_;
  std::unordered_set<perpos::core::ComponentId> channel_members_;
  perpos::fusion::HdopLikelihoodFeature* likelihood_ = nullptr;
  SpanBuffer generator_{0};
  std::vector<std::unique_ptr<Device>> devices_;
};

/// Index of a component kind in the span tables (registered on first use;
/// call only while no pass runs).
std::uint16_t component_kind(std::string_view kind);
const std::vector<std::string>& component_kinds();

/// Resident set size in bytes.
double rss_bytes();
/// Process CPU time (user + system) in seconds.
double cpu_seconds();

}  // namespace perfbench
