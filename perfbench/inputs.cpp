#include "inputs.hpp"

#include "perpos/core/data_types.hpp"
#include "perpos/core/graph.hpp"
#include "perpos/locmodel/fixtures.hpp"
#include "perpos/sensors/emulator.hpp"
#include "perpos/sensors/gps_sensor.hpp"
#include "perpos/sim/random.hpp"
#include "perpos/sim/scheduler.hpp"
#include "perpos/wifi/signal_model.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

using namespace perpos;

namespace perfbench {

namespace {

/// A random tour of the office fixture (make_office_building): along the
/// corridor (y = 10) to a room's doorway, into the room, a pause, and back
/// out — repeated until the walk lasts at least `duration_s`.
sensors::Trajectory office_tour(sim::Random& random, double duration_s) {
  struct Room {
    double door_x;
    double door_y;
    double inside_y;
  };
  std::vector<Room> rooms;
  for (int i = 0; i < 4; ++i) {
    const double x = 8.0 * i + 4.0;
    rooms.push_back({x, 8.5, 4.25});    // South office, door on y = 8.5.
    rooms.push_back({x, 11.5, 15.75});  // North office, door on y = 11.5.
  }
  rooms.push_back({32.0, 10.0, 10.0});  // Lab, door on x = 32.

  sensors::TrajectoryBuilder builder({2.0, 10.0});  // Lobby.
  double elapsed = 0.0;
  geo::LocalPoint at{2.0, 10.0};
  const auto walk = [&](geo::LocalPoint to, double speed) {
    builder.walk_to(to, speed);
    elapsed += std::hypot(to.x - at.x, to.y - at.y) / speed;
    at = to;
  };
  while (elapsed < duration_s) {
    const Room& room =
        rooms[static_cast<std::size_t>(random.uniform_int(0, 8))];
    const double speed = random.uniform(0.8, 1.6);
    walk({std::clamp(room.door_x, 4.5, 31.0), 10.0}, speed);
    if (room.door_x >= 32.0) {
      walk({random.uniform(34.0, 39.0), random.uniform(2.0, 18.0)}, speed);
    } else {
      walk({room.door_x, room.door_y}, speed);
      walk({room.door_x + random.uniform(-3.0, 3.0),
            room.inside_y + random.uniform(-3.0, 3.0)},
           speed);
    }
    const double pause = random.uniform(0.0, 20.0);
    builder.pause(pause);
    elapsed += pause;
    walk({std::clamp(room.door_x, 4.5, 31.0), 10.0}, speed);
  }
  return builder.build();
}

/// Store a recorded trace as 1 Hz epochs (every fragment of one receiver
/// epoch shares its timestamp).
void store_epochs(const sensors::Trace& trace, std::size_t epochs,
                  DeviceInputs& out) {
  for (const sensors::TraceEntry& entry : trace.entries()) {
    if (out.times.empty() || out.times.back() != entry.time) {
      if (out.times.size() == epochs) break;
      out.times.push_back(entry.time);
      out.first_fragment.push_back(
          static_cast<std::uint32_t>(out.fragment_end.size()));
    }
    out.bytes += entry.payload.as<core::RawFragment>().bytes;
    out.fragment_end.push_back(static_cast<std::uint32_t>(out.bytes.size()));
  }
  out.first_fragment.push_back(
      static_cast<std::uint32_t>(out.fragment_end.size()));
}

/// Record a GPS receiver walking `walk` — the replayed NMEA stream.
void record_gps(const WorkloadConfig& config, int device,
                const locmodel::Building& building, sim::Random& random,
                DeviceInputs& out) {
  const sensors::Trajectory& walk = out.walk;
  sim::Scheduler scheduler;
  core::ProcessingGraph graph(&scheduler.clock());
  sensors::GpsSensorConfig gps_config;
  gps_config.emit_gsa = false;
  const locmodel::Building* indoor = nullptr;
  if (config.pipeline == Pipeline::kGpsFleet) {
    gps_config.fragments_per_sentence = 1;  // One radio message per epoch.
  } else {
    // Fig. 6: a degraded indoor trace, several fragments per sentence.
    gps_config.model.degraded_fix_loss_prob = 0.1;
    indoor = &building;
  }
  auto gps = std::make_shared<sensors::GpsSensor>(
      scheduler, random, walk, building.frame(), gps_config, indoor);
  auto recorder = std::make_shared<sensors::TraceRecorderFeature>();
  graph.attach_feature(graph.add(gps), recorder);

  const double end_s = config.epochs + 0.5;
  if (config.pipeline == Pipeline::kGpsFleet) {
    if (config.indoor_every > 0 &&
        device % config.indoor_every == config.indoor_every - 1) {
      // Stays indoors all run: the receiver keeps reporting few satellites.
      gps->add_outage(sim::SimTime::zero(), sim::SimTime::from_seconds(end_s));
    } else if (config.outage_share > 0.0) {
      // Scripted 30 s indoor outages, one per block, covering
      // `outage_share` of the time.
      const double block_s = 30.0 / config.outage_share;
      for (double block = 0.0; block < end_s; block += block_s) {
        const double from = block + random.uniform(0.0, block_s - 30.0);
        gps->add_outage(sim::SimTime::from_seconds(from),
                        sim::SimTime::from_seconds(from + 30.0));
      }
    }
  }
  gps->start();
  scheduler.run_until(sim::SimTime::from_seconds(end_s));
  store_epochs(recorder->trace(), static_cast<std::size_t>(config.epochs),
               out);
}

/// Noisy WiFi scans along the walk, one per second.
void record_scans(const WorkloadConfig& config, const wifi::SignalModel& model,
                  sim::Random& random, DeviceInputs& out) {
  for (int k = 1; k <= config.epochs; ++k) {
    const sim::SimTime t = sim::SimTime::from_seconds(k);
    out.times.push_back(t);
    out.scans.push_back(model.scan_at(out.walk.position_at(t), random, t));
  }
}

}  // namespace

std::uint64_t device_seed(std::uint64_t seed, int device) {
  // splitmix64 over (seed, device).
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(device + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<DeviceInputs> generate_inputs(const WorkloadConfig& config,
                                          std::uint64_t seed,
                                          unsigned threads) {
  const locmodel::Building building = locmodel::make_office_building();
  const wifi::SignalModel signal(wifi::office_access_points(), {}, &building);
  std::vector<std::optional<DeviceInputs>> slots(
      static_cast<std::size_t>(config.devices));
  std::atomic<int> next{0};
  const auto work = [&] {
    for (int d = next++; d < config.devices; d = next++) {
      sim::Random random(device_seed(seed, d));
      DeviceInputs& out = slots[static_cast<std::size_t>(d)].emplace(
          DeviceInputs{office_tour(random, config.epochs + 2.0), {}, {}, {},
                       {}, {}});
      if (config.pipeline == Pipeline::kWifiRooms) {
        record_scans(config, signal, random, out);
      } else {
        record_gps(config, d, building, random, out);
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned i = 1; i < std::max(1u, threads); ++i) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();

  std::vector<DeviceInputs> inputs;
  inputs.reserve(slots.size());
  for (auto& slot : slots) inputs.push_back(std::move(*slot));
  return inputs;
}

}  // namespace perfbench
