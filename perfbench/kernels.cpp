#include "kernels.hpp"

#include "spans.hpp"
#include "stats.hpp"

#include "perpos/core/data_tree.hpp"
#include "perpos/core/data_types.hpp"
#include "perpos/fusion/features.hpp"
#include "perpos/fusion/particle_filter.hpp"
#include "perpos/locmodel/resolver.hpp"
#include "perpos/nmea/stream_parser.hpp"
#include "perpos/sim/random.hpp"

#include <algorithm>

using namespace perpos;

namespace perfbench {

namespace {

/// Devices and epochs per device replayed for the cheap kernels.
constexpr std::size_t kReplayDevices = 4;
constexpr std::size_t kReplayEpochs = 512;
/// Calls timed together for kernels far below a microsecond.
constexpr std::size_t kBatch = 64;
constexpr int kRepeats = 3;

/// Keep a computed value alive so the timed call is not optimized away.
inline void keep(const void* p) { asm volatile("" : : "r"(p) : "memory"); }

/// Median per-call time (ns) of `call(i)` over batches of kBatch calls.
template <typename Call>
double batched_ns(std::size_t calls, Call&& call) {
  std::vector<double> per_call;
  for (int r = 0; r < kRepeats; ++r) {
    for (std::size_t i = 0; i + kBatch <= calls; i += kBatch) {
      const std::int64_t start = now_ns();
      for (std::size_t j = i; j < i + kBatch; ++j) call(j);
      per_call.push_back(static_cast<double>(now_ns() - start) / kBatch);
    }
  }
  return median(std::move(per_call));
}

}  // namespace

double parse_ns(const std::vector<DeviceInputs>& inputs) {
  std::vector<std::string_view> fragments;
  for (std::size_t d = 0; d < std::min(kReplayDevices, inputs.size()); ++d) {
    const DeviceInputs& device = inputs[d];
    const std::size_t epochs = std::min(kReplayEpochs, device.epochs());
    if (device.first_fragment.size() <= epochs) continue;
    for (std::uint32_t f = 0; f < device.first_fragment[epochs]; ++f) {
      fragments.push_back(device.fragment(f));
    }
  }
  nmea::StreamParser parser;
  return batched_ns(fragments.size(), [&](std::size_t i) {
    const auto sentences = parser.feed(fragments[i]);
    keep(sentences.data());
  });
}

double resolve_ns(const std::vector<core::Sample>& resolver_inputs,
                  const locmodel::Building& building) {
  return batched_ns(resolver_inputs.size(), [&](std::size_t i) {
    const core::Payload& payload = resolver_inputs[i].payload;
    geo::LocalPoint p;
    if (const auto* fix = payload.get<core::PositionFix>()) {
      p = building.frame().to_local(fix->position);
    } else if (const auto* local = payload.get<locmodel::LocalPosition>()) {
      p = local->point;
    }
    keep(building.room_at(p, 0));
  });
}

double knn_us(const std::vector<DeviceInputs>& inputs,
              const wifi::FingerprintDatabase& database) {
  std::vector<double> per_call;
  for (int r = 0; r < kRepeats; ++r) {
    for (std::size_t d = 0; d < std::min(kReplayDevices, inputs.size()); ++d) {
      const auto& scans = inputs[d].scans;
      for (std::size_t k = 0; k < std::min<std::size_t>(128, scans.size());
           ++k) {
        const std::int64_t start = now_ns();
        const auto estimate = database.estimate(scans[k]);
        per_call.push_back(static_cast<double>(now_ns() - start) / 1e3);
        keep(&estimate);
      }
    }
  }
  return median(std::move(per_call));
}

FilterKernels filter_kernels(
    const std::vector<core::Sample>& filter_inputs,
    const std::unordered_set<core::ComponentId>& channel_members,
    fusion::HdopLikelihoodFeature& likelihood,
    const locmodel::Building& building, int particles) {
  std::vector<double> tree_us;
  std::vector<double> update_us;
  std::vector<double> weight_ns;
  double nodes = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    sim::Random random(7);
    fusion::ParticleFilterConfig config;
    config.particle_count = static_cast<std::size_t>(particles);
    fusion::ParticleFilter filter(config, random);
    std::optional<sim::SimTime> last;
    for (const core::Sample& sample : filter_inputs) {
      const auto* fix = sample.payload.get<core::PositionFix>();
      if (fix == nullptr) continue;
      std::int64_t t0 = now_ns();
      const core::DataTree tree = core::DataTree::build(sample, channel_members);
      tree_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      if (r == 0) nodes += static_cast<double>(tree.size());
      likelihood.apply(tree);

      const geo::LocalPoint measured = building.frame().to_local(fix->position);
      if (!filter.initialized()) {
        filter.init_gaussian(measured, std::max(fix->horizontal_accuracy_m, 5.0));
        last = fix->timestamp;
        continue;
      }
      const double dt = last ? (fix->timestamp - *last).seconds() : 1.0;
      last = fix->timestamp;
      t0 = now_ns();
      filter.predict(std::max(dt, 0.0), &building);
      const std::int64_t t1 = now_ns();
      filter.weight_with([&likelihood](const fusion::Particle& p) {
        return likelihood.get_likelihood(p);
      });
      const std::int64_t t2 = now_ns();
      filter.maybe_resample();
      const std::int64_t t3 = now_ns();
      keep(&filter);
      update_us.push_back(static_cast<double>(t3 - t0) / 1e3);
      weight_ns.push_back(static_cast<double>(t2 - t1));
    }
  }
  FilterKernels k;
  k.tree_us = median(tree_us);
  k.tree_nodes =
      filter_inputs.empty() ? 0.0 : nodes / static_cast<double>(filter_inputs.size());
  k.update_us = median(update_us);
  k.likelihood_ns = median(weight_ns) / std::max(1, particles);
  return k;
}

}  // namespace perfbench
