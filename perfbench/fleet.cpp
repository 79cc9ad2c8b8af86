#include "fleet.hpp"

#include "perpos/core/data_types.hpp"
#include "perpos/fusion/features.hpp"
#include "perpos/fusion/particle_filter.hpp"
#include "perpos/fusion/satellite_filter.hpp"
#include "perpos/locmodel/fixtures.hpp"
#include "perpos/locmodel/resolver.hpp"
#include "perpos/sensors/pipeline_components.hpp"
#include "perpos/wifi/components.hpp"
#include "perpos/wifi/signal_model.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

using namespace perpos;

namespace perfbench {

namespace {

/// Probe inputs kept per device and component kind for the kernel replays.
constexpr std::size_t kRecordCap = 400;
/// Devices whose probe inputs are kept.
constexpr int kRecordDevices = 4;

std::vector<std::string>& kind_table() {
  static std::vector<std::string> kinds;
  return kinds;
}

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t trace_of(const Device& device, int k) {
  return (static_cast<std::uint64_t>(device.index) << 32) |
         static_cast<std::uint32_t>(k);
}

/// The translucency probe of the traced run: a Component Feature whose
/// consume hook marks the start of every delivery into its host. A
/// component span runs from that mark to the next delivery's mark (or to
/// the end of the enclosing push / run_all span), so it holds the host's
/// on_input plus the dispatch of what it emitted.
class Probe final : public core::ComponentFeature {
 public:
  Probe(Device& device, std::uint16_t kind, bool record)
      : device_(device), kind_(kind), record_(record) {}

  std::string_view name() const override { return "perfbench.probe"; }

  bool consume(core::Sample& sample) override {
    if (record_ && device_.recorded[kind_].size() < kRecordCap) {
      device_.recorded[kind_].push_back(sample);
    }
    if (!device_.sampled) return true;
    const std::int64_t t = now_ns();
    if (device_.open_component != 0) {
      device_.spans.close(device_.open_component, t);
    }
    device_.open_component = device_.spans.open(
        SpanKind::kComponent, device_.enclosing_span, device_.trace_id, t,
        kind_);
    ++device_.probe_counts[kind_];
    return true;
  }

 private:
  Device& device_;
  std::uint16_t kind_;
  bool record_;
};

/// The application: every fix delivered by the provider.
void on_fix(Device& device, const core::Sample& sample) {
  std::uint64_t span = 0;
  if (device.sampled) {
    span = device.spans.open(
        SpanKind::kListener,
        device.open_component != 0 ? device.open_component
                                   : device.enclosing_span,
        device.trace_id, now_ns());
  }
  geo::LocalPoint local;
  std::string_view room;
  sim::SimTime timestamp;
  if (const auto* fix = sample.payload.get<core::RoomFix>()) {
    local = fix->local;
    room = fix->room;
    timestamp = fix->timestamp;
  } else if (const auto* fix = sample.payload.get<core::PositionFix>()) {
    local = device.building->frame().to_local(fix->position);
    timestamp = fix->timestamp;
  } else {
    if (span != 0) device.spans.close(span, now_ns());
    return;
  }
  if (device.options->corrupt && device.index == 0 && device.fixes == 5) {
    local.x += 1e-6;  // Self-test: one wrong coordinate must be caught.
  }
  std::uint64_t h = device.hash;
  h = fnv(h, &timestamp.ns, sizeof timestamp.ns);
  h = fnv(h, &local.x, sizeof local.x);
  h = fnv(h, &local.y, sizeof local.y);
  h = fnv(h, room.data(), room.size());
  h = fnv(h, "|", 1);
  device.hash = h;
  ++device.fixes;
  if (device.options->score) {
    device.unscored.push_back({timestamp, local.x, local.y});
  }
  if (device.open_loop) {
    device.latencies.push_back(
        {device.current_due_ns,
         static_cast<float>((now_ns() - device.current_due_ns) / 1e3)});
  }
  if (span != 0) device.spans.close(span, now_ns());
}

/// Run `body` inside a push / run_all span when the epoch is sampled.
template <typename Body>
void graph_span(Device& device, SpanKind kind, std::uint64_t task_span,
                Body&& body) {
  if (!device.sampled) {
    body();
    return;
  }
  const std::int64_t start = now_ns();
  device.enclosing_span =
      device.spans.open(kind, task_span, device.trace_id, start);
  body();
  const std::int64_t end = now_ns();
  if (device.open_component != 0) {
    device.spans.close(device.open_component, end);
    device.open_component = 0;
  }
  device.spans.close(device.enclosing_span, end);
  device.enclosing_span = 0;
  device.sampled_graph_ns += end - start;
}

/// The lane task of epoch `k`.
void run_epoch(Device& device, int k) {
  const bool tracing = device.options->probes;
  const std::int64_t start = tracing ? now_ns() : 0;
  const auto index = static_cast<std::size_t>(k);
  const DeviceInputs& inputs = device.inputs;
  const std::int64_t due_ns = device.due_ns[index];
  const std::uint64_t post_span = tracing ? device.post_span[index] : 0;
  device.current_due_ns = due_ns;

  std::uint64_t task_span = 0;
  std::uint64_t deliveries_before = 0;
  std::int64_t graph_ns_before = 0;
  if (tracing && post_span != 0) {
    device.sampled = true;
    device.trace_id = trace_of(device, k);
    task_span =
        device.spans.open(SpanKind::kTask, post_span, device.trace_id, start);
    device.queue_wait_us.push_back(static_cast<float>((start - due_ns) / 1e3));
    deliveries_before = device.graph->deliveries();
    graph_ns_before = device.sampled_graph_ns;
  }

  device.clock.set(inputs.times[index]);
  graph_span(device, SpanKind::kPush, task_span, [&] {
    if (!inputs.scans.empty()) {
      device.source->push(inputs.scans[index]);
      return;
    }
    for (std::uint32_t f = inputs.first_fragment[index];
         f < inputs.first_fragment[index + 1]; ++f) {
      device.source->push(core::RawFragment{std::string(inputs.fragment(f))});
    }
  });
  if (device.scheduler) {
    graph_span(device, SpanKind::kRunAll, task_span,
               [&] { device.scheduler->run_all(); });
  }
  ++device.epochs_done;

  if (device.sampled) {
    device.spans.close(task_span, now_ns());
    device.sampled_deliveries += device.graph->deliveries() - deliveries_before;
    device.graph_us.push_back(static_cast<float>(
        (device.sampled_graph_ns - graph_ns_before) / 1e3));
    device.sampled = false;
  }
  if (tracing) device.busy_ns += now_ns() - start;
}

/// Sleep (never spin) until `due_ns`: the generator must leave its core to
/// the workers and the host while it waits.
void wait_until(std::int64_t due_ns) {
  const std::int64_t ahead = due_ns - now_ns();
  if (ahead > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ahead));
}

}  // namespace

std::uint16_t component_kind(std::string_view kind) {
  auto& kinds = kind_table();
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i] == kind) return static_cast<std::uint16_t>(i);
  }
  kinds.emplace_back(kind);
  return static_cast<std::uint16_t>(kinds.size() - 1);
}

const std::vector<std::string>& component_kinds() { return kind_table(); }

double rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long pages = 0;
  long resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

Fleet::Fleet(const WorkloadConfig& config,
             const std::vector<DeviceInputs>& inputs,
             exec::ExecutionEngine& engine, FleetOptions options)
    : config_(config),
      inputs_(inputs),
      engine_(engine),
      options_(options),
      building_(locmodel::make_office_building()) {
  if (config_.pipeline == Pipeline::kWifiRooms) {
    signal_ = std::make_unique<wifi::SignalModel>(wifi::office_access_points(),
                                                  wifi::SignalModelConfig{},
                                                  &building_);
    database_ = std::make_unique<wifi::FingerprintDatabase>(
        wifi::FingerprintDatabase::survey(*signal_, building_, 2.0));
  }
  devices_.reserve(inputs_.size());
  for (std::size_t d = 0; d < inputs_.size(); ++d) {
    devices_.push_back(
        std::make_unique<Device>(static_cast<int>(d), inputs_[d]));
    build_device(*devices_.back());
  }
}

Fleet::~Fleet() = default;

void Fleet::build_device(Device& device) {
  device.options = &options_;
  device.building = &building_;
  const auto epochs = static_cast<std::size_t>(config_.epochs);
  device.due_ns.assign(epochs, 0);

  if (options_.score) {
    device.unscored.reserve(
        epochs / static_cast<std::size_t>(pass_rounds(config_)) + 1);
  }
  if (options_.probes) {
    device.post_span.assign(epochs, 0);
    const std::size_t sampled = epochs / static_cast<std::size_t>(options_.trace_every) + 1;
    device.queue_wait_us.reserve(sampled);
    device.graph_us.reserve(sampled);
  }
  device.lane = engine_.create_lane("device-" + std::to_string(device.index));
  device.graph = std::make_unique<core::ProcessingGraph>(&device.clock);
  core::ProcessingGraph& graph = *device.graph;
  if (options_.metrics) {
    obs::ObservabilityConfig observability;
    observability.timing = false;  // Metrics only, as a server runs it.
    graph.enable_observability(observability);
  }
  device.channels = std::make_unique<core::ChannelManager>(graph);
  device.service =
      std::make_unique<core::PositioningService>(graph, *device.channels);

  core::LocationProvider* provider = nullptr;
  switch (config_.pipeline) {
    case Pipeline::kGpsFleet: {
      // Fig. 7 shape: the receiver on the device, everything else on the
      // server, the cut edge remoted over a zero-latency link.
      device.scheduler = std::make_unique<sim::Scheduler>();
      device.network_random = std::make_unique<sim::Random>(1);
      device.network = std::make_unique<sim::Network>(*device.scheduler,
                                                      *device.network_random);
      device.deployment = std::make_unique<runtime::DistributedDeployment>(
          graph, *device.network);
      device.mobile = device.deployment->add_host("mobile");
      device.server = device.deployment->add_host("server");
      device.network->set_link(device.mobile, device.server,
                               {sim::SimTime::zero(), 0.0, {}});
      device.network->set_link(device.server, device.mobile,
                               {sim::SimTime::zero(), 0.0, {}});

      device.source = std::make_shared<core::SourceComponent>(
          "GPS",
          std::vector<core::DataSpec>{core::provide<core::RawFragment>()});
      const auto source = graph.add(device.source);
      const auto parser = graph.add(std::make_shared<sensors::NmeaParser>());
      graph.attach_feature(
          parser, std::make_shared<fusion::NumberOfSatellitesFeature>());
      graph.attach_feature(parser, std::make_shared<fusion::HdopFeature>());
      const auto filter =
          graph.add(std::make_shared<fusion::SatelliteFilter>(4));
      const auto interpreter =
          graph.add(std::make_shared<sensors::NmeaInterpreter>());
      const auto resolver =
          graph.add(std::make_shared<locmodel::RoomResolver>(building_));
      graph.connect(source, parser);
      graph.connect(parser, filter);
      graph.connect(filter, interpreter);
      graph.connect(interpreter, resolver);
      provider = &device.service->request_provider(
          core::Criteria::for_type<core::RoomFix>());
      device.deployment->assign(source, device.mobile);
      for (const auto id : {parser, filter, interpreter, resolver}) {
        device.deployment->assign(id, device.server);
      }
      device.deployment->deploy();
      device.swap_target = filter;
      break;
    }
    case Pipeline::kWifiRooms: {
      device.source = std::make_shared<core::SourceComponent>(
          "WiFi",
          std::vector<core::DataSpec>{core::provide<wifi::RssiScan>()});
      const auto source = graph.add(device.source);
      const auto positioner =
          graph.add(std::make_shared<wifi::WifiPositioner>(*database_));
      const auto resolver =
          graph.add(std::make_shared<locmodel::RoomResolver>(building_));
      graph.connect(source, positioner);
      graph.connect(positioner, resolver);
      provider = &device.service->request_provider(
          core::Criteria::for_type<core::RoomFix>());
      device.swap_target = resolver;
      break;
    }
    case Pipeline::kPfTracking: {
      device.filter_random = std::make_unique<sim::Random>(
          device_seed(0x5eed, device.index));
      device.source = std::make_shared<core::SourceComponent>(
          "GPS",
          std::vector<core::DataSpec>{core::provide<core::RawFragment>()});
      const auto source = graph.add(device.source);
      const auto parser = graph.add(std::make_shared<sensors::NmeaParser>());
      graph.attach_feature(parser, std::make_shared<fusion::HdopFeature>());
      const auto interpreter =
          graph.add(std::make_shared<sensors::NmeaInterpreter>());
      fusion::ParticleFilterConfig filter_config;
      filter_config.particle_count =
          static_cast<std::size_t>(config_.particles);
      auto filter = std::make_shared<fusion::ParticleFilterComponent>(
          filter_config, *device.filter_random, building_.frame(), &building_);
      filter->set_channel_manager(device.channels.get());
      const auto fusion_id = graph.add(filter);
      graph.connect(source, parser);
      graph.connect(parser, interpreter);
      graph.connect(interpreter, fusion_id);
      core::Channel* channel = device.channels->channel_from_source(source);
      auto likelihood =
          std::make_shared<fusion::HdopLikelihoodFeature>(building_.frame());
      device.channels->attach_feature(*channel, likelihood);
      if (device.index == 0) {
        channel_members_ = {channel->path().begin(), channel->path().end()};
        likelihood_ = likelihood.get();
      }
      device.service->advertise(
          fusion_id, {"ParticleFilter", 2.0, core::Criteria::Power::kMedium});
      core::Criteria criteria;
      criteria.technology = "ParticleFilter";
      provider = &device.service->request_provider(criteria);
      device.swap_target = interpreter;
      break;
    }
  }
  Device* self = &device;
  provider->add_sample_listener(
      [self](const core::Sample& sample) { on_fix(*self, sample); });
  if (options_.probes) attach_probes(device);
  device.reconfigurator =
      std::make_unique<reconfig::LiveReconfigurator>(graph, engine_, device.lane);
}

void Fleet::attach_probes(Device& device) {
  core::ProcessingGraph& graph = *device.graph;
  const bool record = device.index < kRecordDevices;
  for (const core::ComponentId id : graph.components()) {
    if (graph.component(id).input_requirements().empty()) continue;
    const std::uint16_t kind = component_kind(graph.component(id).kind());
    graph.attach_feature(id, std::make_shared<Probe>(device, kind, record));
  }
  device.probe_counts.assign(component_kinds().size() + 8, 0);
  device.recorded.resize(component_kinds().size() + 8);
}

void Fleet::post_epoch(Device& device, int k, std::int64_t due_ns) {
  const auto index = static_cast<std::size_t>(k);
  device.due_ns[index] = due_ns;
  std::uint64_t post_span = 0;
  if (options_.probes && k % options_.trace_every == 0) {
    post_span = generator_.open(SpanKind::kPost, 0, trace_of(device, k),
                                now_ns());
  }
  if (options_.probes) device.post_span[index] = post_span;
  Device* target = &device;
  engine_.post(device.lane, [target, k] { run_epoch(*target, k); });
  if (post_span != 0) generator_.close(post_span, now_ns());
}

void Fleet::maybe_swap(Device& device, int k, PassStats& stats) {
  // Every swap_period-th epoch of each device, phase-shifted per device so
  // the fleet's swaps spread evenly instead of stalling the generator in
  // one burst.
  if (config_.swap_period <= 0 || k == 0 ||
      (k + device.index) % config_.swap_period != 0) {
    return;
  }
  // A fresh instance configured like the incumbent, so the swap leaves the
  // transcript unchanged.
  std::shared_ptr<core::ProcessingComponent> successor;
  switch (config_.pipeline) {
    case Pipeline::kGpsFleet:
      successor = std::make_shared<fusion::SatelliteFilter>(4);
      break;
    case Pipeline::kWifiRooms:
      successor = std::make_shared<locmodel::RoomResolver>(building_);
      break;
    case Pipeline::kPfTracking:
      successor = std::make_shared<sensors::NmeaInterpreter>();
      break;
  }
  const std::int64_t start = now_ns();
  const std::uint64_t span =
      options_.probes
          ? generator_.open(SpanKind::kReplace, 0, trace_of(device, k), start)
          : 0;
  const reconfig::SwapResult result =
      device.reconfigurator->replace(device.swap_target, std::move(successor));
  const std::int64_t end = now_ns();
  if (span != 0) generator_.close(span, end);
  stats.replace_us.push_back((end - start) / 1e3);
  ++stats.swaps;
  if (!result.ok()) {
    ++stats.swap_failures;
    std::fprintf(stderr, "perfbench: swap on device %d failed: %s\n",
                 device.index, result.error.c_str());
  }
}

int Fleet::slice_begin(int r) const {
  return static_cast<int>(static_cast<long long>(config_.epochs) * r /
                          pass_rounds(config_));
}

void Fleet::run_round(int r, PassStats& stats) {
  const int begin = slice_begin(r);
  const int end = slice_begin(r + 1);
  const double cpu_start = cpu_seconds();
  const double rss_start = rss_bytes();
  const std::int64_t start = now_ns();
  for (const auto& device : devices_) {
    for (int k = begin; k < end; ++k) {
      maybe_swap(*device, k, stats);
      post_epoch(*device, k, now_ns());
    }
  }
  engine_.run_until_idle();
  const std::int64_t stop = now_ns();
  const auto epochs = static_cast<std::uint64_t>(end - begin) * devices_.size();
  stats.round_rates.push_back(static_cast<double>(epochs) /
                              ((stop - start) / 1e9));
  stats.wall_s += (stop - start) / 1e9;
  stats.cpu_s += cpu_seconds() - cpu_start;
  stats.rss_growth_bytes += rss_bytes() - rss_start;
  stats.epochs += epochs;
  stats.round_ends.push_back(stats.replace_us.size());
  // After the burst's clock has stopped: the walk lookup scans the walk's
  // phases, which is the benchmark's own work, not the middleware's.
  if (options_.score) score_fixes();
}

void Fleet::score_fixes() {
  for (const auto& device : devices_) {
    for (const FixPoint& fix : device->unscored) {
      const geo::LocalPoint truth =
          device->inputs.walk.position_at(fix.timestamp);
      const double dx = fix.x - truth.x;
      const double dy = fix.y - truth.y;
      device->squared_error += dx * dx + dy * dy;
    }
    device->unscored.clear();
  }
}

void Fleet::run_segment(int s, double rate, PassStats& stats) {
  const int begin = slice_begin(s);
  const int end = slice_begin(s + 1);
  const std::size_t devices = devices_.size();
  for (const auto& device : devices_) {
    device->open_loop = true;
    device->latencies.reserve(static_cast<std::size_t>(config_.epochs));
  }
  const double period_ns = 1e9 / rate;
  // Wake-ups as exact as the kernel allows, so sleeping between due times
  // adds microseconds, not the default 50 us of timer slack.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const std::int64_t start = now_ns() + 1'000'000;
  std::int64_t j = 0;
  for (int k = begin; k < end; ++k) {
    for (std::size_t d = 0; d < devices; ++d, ++j) {
      const std::int64_t due =
          start + static_cast<std::int64_t>(static_cast<double>(j) * period_ns);
      wait_until(due);
      stats.lag_us.push_back((now_ns() - due) / 1e3);
      maybe_swap(*devices_[d], k, stats);
      post_epoch(*devices_[d], k, due);
    }
  }
  stats.backlog_end = std::max(stats.backlog_end, engine_.outstanding());
  engine_.run_until_idle();
  stats.wall_s += (now_ns() - start) / 1e9;
  stats.epochs += static_cast<std::uint64_t>(j);
}

std::uint64_t Fleet::deliveries() const {
  std::uint64_t total = 0;
  for (const auto& device : devices_) total += device->graph->deliveries();
  return total;
}

std::uint64_t Fleet::wire_messages() const {
  std::uint64_t total = 0;
  for (const auto& device : devices_) {
    if (device->network) {
      total += device->network->stats(device->mobile, device->server)
                   .messages_sent;
    }
  }
  return total;
}

std::uint64_t Fleet::wire_bytes() const {
  std::uint64_t total = 0;
  for (const auto& device : devices_) {
    if (device->network) {
      total +=
          device->network->stats(device->mobile, device->server).bytes_sent;
    }
  }
  return total;
}

std::uint64_t Fleet::decode_failures() const {
  std::uint64_t total = 0;
  for (const auto& device : devices_) {
    for (const core::ComponentId id : device->graph->components()) {
      if (const auto* ingress =
              device->graph->component_as<runtime::RemoteIngress>(id)) {
        total += ingress->decode_failures();
      }
    }
  }
  return total;
}

std::uint64_t Fleet::resamples() const {
  std::uint64_t total = 0;
  for (const auto& device : devices_) {
    for (const core::ComponentId id : device->graph->components()) {
      if (const auto* filter =
              device->graph->component_as<fusion::ParticleFilterComponent>(id)) {
        total += filter->filter().resample_count();
      }
    }
  }
  return total;
}

std::uint64_t Fleet::filter_updates() const {
  std::uint64_t total = 0;
  for (const auto& device : devices_) {
    for (const core::ComponentId id : device->graph->components()) {
      if (const auto* filter =
              device->graph->component_as<fusion::ParticleFilterComponent>(id)) {
        total += filter->feature_likelihood_updates() +
                 filter->gaussian_updates();
      }
    }
  }
  return total;
}

}  // namespace perfbench
