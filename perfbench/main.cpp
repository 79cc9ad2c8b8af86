// Fleet-scale end-to-end benchmark of the PerPos pipelines.
//
// Usage (normally through run.py, which reads workloads.json and builds
// this program):
//   perfbench --pipeline gps_fleet|wifi_rooms|pf_tracking --seed N
//             --devices D --epochs E --rate R [--trace 0|1] [options]
//
// One run generates every device's inputs from the seed, then runs passes,
// each on a freshly set-up fleet (one graph and one engine lane per device):
//   1. the inline reference pass (no workers): the single-thread baseline
//      and the reference transcript of every device;
//   2. the saturated pass: bursts posted per lane, then run_until_idle;
//   3. the open-loop pass: epochs offered at a fixed rate, each stamped
//      with its due time.
// Every pass must reproduce the reference transcripts exactly. With
// --trace 1 the run instead traces a saturated and an open-loop pass,
// replays the recorded inputs through the kernels, and prints per-layer
// metrics. The last line of output is the JSON result.

#include "fleet.hpp"
#include "inputs.hpp"
#include "kernels.hpp"
#include "spans.hpp"
#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

using namespace perfbench;

namespace {

struct Args {
  WorkloadConfig config;
  std::uint64_t seed = 1;
  bool trace = false;
  bool corrupt = false;
  int workers = 0;      ///< nproc - 1.
  int trace_every = 0;  ///< About 4000 sampled epochs per pass.
  std::string git_sha = "unavailable";
  std::string out_dir = ".";
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> options;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--corrupt-transcript") {
      args.corrupt = true;
      continue;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    options[key.substr(2)] = argv[++i];
  }
  const auto take = [&](const char* name, auto& out) {
    const auto it = options.find(name);
    if (it == options.end()) return;
    using T = std::decay_t<decltype(out)>;
    try {
      if constexpr (std::is_same_v<T, std::string>) {
        out = it->second;
      } else if constexpr (std::is_same_v<T, double>) {
        out = std::stod(it->second);
      } else if constexpr (std::is_same_v<T, bool>) {
        out = std::stoi(it->second) != 0;
      } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        out = std::stoull(it->second);
      } else {
        out = std::stoi(it->second);
      }
    } catch (const std::exception&) {
      usage(std::string("bad value for --") + name);
    }
    options.erase(it);
  };
  std::string pipeline;
  take("workload", args.config.name);
  take("pipeline", pipeline);
  take("seed", args.seed);
  take("trace", args.trace);
  take("devices", args.config.devices);
  take("epochs", args.config.epochs);
  take("rate", args.config.rate);
  take("swap-period", args.config.swap_period);
  take("outage-share", args.config.outage_share);
  take("indoor-every", args.config.indoor_every);
  take("particles", args.config.particles);
  take("metrics", args.config.metrics);
  take("git-sha", args.git_sha);
  take("out-dir", args.out_dir);
  if (!options.empty()) usage("unknown option --" + options.begin()->first);
  if (pipeline == "gps_fleet") {
    args.config.pipeline = Pipeline::kGpsFleet;
  } else if (pipeline == "wifi_rooms") {
    args.config.pipeline = Pipeline::kWifiRooms;
  } else if (pipeline == "pf_tracking") {
    args.config.pipeline = Pipeline::kPfTracking;
  } else {
    usage("--pipeline must be gps_fleet, wifi_rooms or pf_tracking");
  }
  if (args.config.name.empty()) args.config.name = pipeline;
  if (args.config.devices < 1 || args.config.epochs < 1 ||
      args.config.rate <= 0.0 || args.config.outage_share < 0.0 ||
      args.config.outage_share >= 1.0 || args.config.particles < 1) {
    usage("sizes and rates must be positive and the outage share below 1");
  }
  args.trace_every = std::max(
      1, static_cast<int>(static_cast<long long>(args.config.epochs) *
                          args.config.devices / 4000));
  // nproc - 1 workers: with the generator thread, one thread per core.
  const unsigned cores = std::max(2u, std::thread::hardware_concurrency());
  args.workers = static_cast<int>(cores) - 1;
  return args;
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Failed operations against attempted ones (epochs and swaps).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t task_failures = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t swap_failures = 0;
  std::uint64_t failed() const {
    return mismatches + task_failures + decode_failures + swap_failures;
  }
};

/// Listener transcripts of the inline reference pass.
struct Reference {
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint64_t> fixes;
};

/// One pass: a freshly set-up fleet on its own engine. The fleet is
/// declared after the engine, so it is torn down first.
struct Pass {
  std::unique_ptr<perpos::exec::ExecutionEngine> engine;
  std::unique_ptr<Fleet> fleet;
  PassStats stats;
  bool threw = false;
};

/// Sets up passes, runs their steps and keeps the books.
class Harness {
 public:
  Harness(const Args& args, const std::vector<DeviceInputs>& inputs)
      : args_(args), inputs_(inputs) {}

  /// Set up a pass (timed as one setup).
  std::unique_ptr<Pass> start(int workers, FleetOptions options) {
    auto pass = std::make_unique<Pass>();
    pass->engine = std::make_unique<perpos::exec::ExecutionEngine>(
        static_cast<std::size_t>(workers));
    pass->fleet = build(*pass->engine, options);
    return pass;
  }

  /// Run one step (a round or a segment) of `pass`. A task exception ends
  /// the pass's measurement; it is counted when the pass finishes.
  void step(Pass& pass, const std::function<void(Fleet&, PassStats&)>& body) {
    if (pass.threw) return;
    try {
      body(*pass.fleet, pass.stats);
    } catch (const std::exception& e) {
      pass.threw = true;
      std::fprintf(stderr, "perfbench: task failed: %s\n", e.what());
      pass.engine->run_until_idle();
    }
  }

  /// Count the pass's operations and failures; with a reference, every
  /// device's transcript must match it.
  void finish(const Pass& pass, const Reference* reference) {
    tally_.attempted += pass.stats.epochs + pass.stats.swaps;
    tally_.task_failures +=
        std::max<std::uint64_t>(pass.engine->failed(), pass.threw);
    tally_.swap_failures += pass.stats.swap_failures;
    tally_.decode_failures += pass.fleet->decode_failures();
    if (reference != nullptr) check(*pass.fleet, *reference);
  }

  /// A whole open-loop pass: set up, every segment, finish. `inspect`
  /// sees the fleet before it is torn down.
  PassStats run_open_loop(int workers, FleetOptions options,
                          const Reference& reference,
                          const std::function<void(const Fleet&)>& inspect) {
    const std::unique_ptr<Pass> pass = start(workers, options);
    for (int s = 0; s < pass_rounds(args_.config); ++s) {
      step(*pass, [&](Fleet& fleet, PassStats& stats) {
        fleet.run_segment(s, args_.config.rate, stats);
      });
    }
    finish(*pass, &reference);
    inspect(*pass->fleet);
    return pass->stats;
  }

  /// Set up (and tear down) a fleet only, for more setup-time samples.
  void setup_only(FleetOptions options) {
    perpos::exec::ExecutionEngine engine(0);
    build(engine, options);
  }

  const Tally& tally() const noexcept { return tally_; }
  const std::vector<double>& setup_s() const noexcept { return setup_s_; }

 private:
  std::unique_ptr<Fleet> build(perpos::exec::ExecutionEngine& engine,
                               FleetOptions options) {
    options.trace_every = args_.trace_every;
    const std::int64_t start = now_ns();
    auto fleet = std::make_unique<Fleet>(args_.config, inputs_, engine, options);
    setup_s_.push_back((now_ns() - start) / 1e9);
    return fleet;
  }

  void check(const Fleet& fleet, const Reference& reference) {
    for (const auto& device : fleet.devices()) {
      const auto d = static_cast<std::size_t>(device->index);
      if (device->hash == reference.hashes[d] &&
          device->fixes == reference.fixes[d] &&
          device->epochs_done ==
              static_cast<std::uint64_t>(args_.config.epochs)) {
        continue;
      }
      ++tally_.mismatches;
      std::fprintf(stderr,
                   "perfbench: device %d transcript differs from the inline "
                   "reference (%llu fixes, reference %llu)\n",
                   device->index,
                   static_cast<unsigned long long>(device->fixes),
                   static_cast<unsigned long long>(reference.fixes[d]));
    }
  }

  const Args& args_;
  const std::vector<DeviceInputs>& inputs_;
  Tally tally_;
  std::vector<double> setup_s_;
};

/// Per-layer figures taken from the spans of one traced pass.
struct TracedPass {
  double graph_ns = 0.0;       ///< push + run_all, summed over sampled epochs.
  double deliveries = 0.0;     ///< Graph deliveries in sampled epochs.
  std::map<std::string, double> calls;  ///< Deliveries per component kind.
  std::vector<double> graph_us;
  std::map<std::string, std::vector<double>> self_ns;  ///< Per kind.
  std::vector<double> remote_us;
  double busy_ns = 0.0;
  std::vector<double> queue_wait_us;
  std::vector<double> replace_us;
};

/// The spans of every traced pass by pass name, written out at exit, one
/// file per pass: span and trace ids are unique within a pass only.
std::vector<std::pair<std::string, std::vector<Span>>> g_spans;

TracedPass collect(const Fleet& fleet, const char* pass_name) {
  TracedPass out;
  std::vector<const Span*> spans;
  for (const Span& s : fleet.generator_spans().spans()) spans.push_back(&s);
  const auto& kinds = component_kinds();
  for (const auto& device : fleet.devices()) {
    for (const Span& s : device->spans.spans()) spans.push_back(&s);
    out.graph_ns += static_cast<double>(device->sampled_graph_ns);
    out.deliveries += static_cast<double>(device->sampled_deliveries);
    for (std::size_t k = 0; k < kinds.size() && k < device->probe_counts.size();
         ++k) {
      out.calls[kinds[k]] += static_cast<double>(device->probe_counts[k]);
    }
    out.graph_us.insert(out.graph_us.end(), device->graph_us.begin(),
                        device->graph_us.end());
    out.busy_ns += static_cast<double>(device->busy_ns);
    out.queue_wait_us.insert(out.queue_wait_us.end(),
                             device->queue_wait_us.begin(),
                             device->queue_wait_us.end());
  }
  const auto self = self_times(spans);
  // Remote hop: from the delivery into RemoteEgress to the delivery into
  // the Parser on the far side, per sampled epoch.
  std::map<std::uint64_t, std::int64_t> egress_start;
  for (const Span* s : spans) {
    if (s->kind == SpanKind::kReplace) {
      out.replace_us.push_back(static_cast<double>(s->duration_ns()) / 1e3);
    }
    if (s->kind != SpanKind::kComponent || s->component >= kinds.size()) {
      continue;
    }
    const std::string& kind = kinds[s->component];
    out.self_ns[kind].push_back(static_cast<double>(self.at(s->id)));
    if (kind == "RemoteEgress") {
      egress_start.emplace(s->trace, s->start_ns);
    } else if (kind == "Parser") {
      const auto it = egress_start.find(s->trace);
      if (it != egress_start.end()) {
        out.remote_us.push_back(static_cast<double>(s->start_ns - it->second) /
                                1e3);
        egress_start.erase(it);
      }
    }
  }
  auto& kept = g_spans.emplace_back(pass_name, std::vector<Span>{}).second;
  kept.reserve(spans.size());
  for (const Span* s : spans) kept.push_back(*s);
  return out;
}

/// Kernel self times, by the component kind whose delivery runs them.
struct Kernels {
  double parse_ns = 0.0;
  double resolve_ns = 0.0;
  double knn_us = 0.0;
  double fingerprints = 0.0;
  FilterKernels filter;

  double per_call_ns(const std::string& kind) const {
    if (kind == "Parser") return parse_ns;
    if (kind == "Resolver") return resolve_ns;
    if (kind == "WifiPositioner") return knn_us * 1e3;
    if (kind == "ParticleFilter") {
      return (filter.update_us + filter.tree_us) * 1e3;
    }
    return 0.0;
  }
};

/// Framework time per delivery: the push span minus the kernel self times,
/// over the deliveries of the sampled epochs.
double hop_ns(const TracedPass& pass, const Kernels& kernels) {
  double kernel_ns = 0.0;
  for (const auto& [kind, calls] : pass.calls) {
    kernel_ns += calls * kernels.per_call_ns(kind);
  }
  return ratio(pass.graph_ns - kernel_ns, pass.deliveries);
}

void print_environment(const Args& args) {
  const WorkloadConfig& c = args.config;
  std::printf(
      "{\"environment\": {\"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"git_sha\": \"%s\", \"nproc\": %u, "
      "\"workers\": %d, \"seed\": %llu, \"workload\": \"%s\", "
      "\"devices\": %d, \"epochs_per_device\": %d, \"offered_rate\": %g, "
      "\"swap_period\": %d, \"trace\": %d}}\n",
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
      args.git_sha.c_str(), std::thread::hardware_concurrency(), args.workers,
      static_cast<unsigned long long>(args.seed), c.name.c_str(), c.devices,
      c.epochs, c.rate, c.swap_period, args.trace ? 1 : 0);
}

void print_result(const std::vector<Metric>& metrics, const Tally& tally,
                  bool correct) {
  std::printf("%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf(
      "failed operations: %llu of %llu (transcript mismatches %llu, task "
      "failures %llu, decode failures %llu, rejected or aborted swaps %llu)\n",
      static_cast<unsigned long long>(tally.failed()),
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.mismatches),
      static_cast<unsigned long long>(tally.task_failures),
      static_cast<unsigned long long>(tally.decode_failures),
      static_cast<unsigned long long>(tally.swap_failures));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<std::uint64_t>(1, tally.attempted));
  json += ", \"failed\": " + std::to_string(tally.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Swap-time percentile `q` of a closed-loop pass: consecutive rounds are
/// grouped until a group holds 1000 swaps (so its p99 rests on ten samples
/// beyond it), and the figure is the median over groups of each group's
/// percentile: one stretch of host steal moves one group, not the run.
double grouped_swap_time(const PassStats& stats, double q) {
  constexpr std::size_t kGroup = 1000;
  const std::vector<double>& swaps = stats.replace_us;
  const auto slice = [&](std::size_t begin, std::size_t end) {
    return std::vector<double>(
        swaps.begin() + static_cast<std::ptrdiff_t>(begin),
        swaps.begin() + static_cast<std::ptrdiff_t>(end));
  };
  std::vector<double> per_group;
  std::size_t begin = 0;
  for (const std::size_t end : stats.round_ends) {
    // Close a group once it holds kGroup swaps, unless fewer than kGroup
    // would be left after it: a short tail joins the last group.
    if (end - begin < kGroup || swaps.size() - end < kGroup) continue;
    per_group.push_back(percentile(slice(begin, end), q));
    begin = end;
  }
  if (swaps.size() > begin) {
    per_group.push_back(percentile(slice(begin, swaps.size()), q));
  }
  return median(std::move(per_group));
}

/// Open-loop latency percentile `q`: the median, over 20 ms windows of due
/// time, of each window's percentile. A shared host steals its cores in
/// bursts of a millisecond or more; a short window's tail holds such a
/// burst or not, and the median window is one without, so the figure
/// tracks the middleware rather than the neighbours.
double windowed_latency(const Fleet& fleet, double q) {
  constexpr std::int64_t kWindowNs = 20'000'000;
  std::map<std::int64_t, std::vector<double>> windows;
  for (const auto& device : fleet.devices()) {
    for (const Latency& l : device->latencies) {
      windows[l.due_ns / kWindowNs].push_back(l.us);
    }
  }
  std::vector<double> per_window;
  for (auto& [start, samples] : windows) {
    per_window.push_back(percentile(std::move(samples), q));
  }
  return median(std::move(per_window));
}

std::vector<double> all_latencies(const Fleet& fleet) {
  std::vector<double> out;
  for (const auto& device : fleet.devices()) {
    for (const Latency& l : device->latencies) out.push_back(l.us);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadConfig& config = args.config;
  print_environment(args);

  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<DeviceInputs> inputs =
      generate_inputs(config, args.seed, threads);
  for (const DeviceInputs& device : inputs) {
    if (device.epochs() != static_cast<std::size_t>(config.epochs)) {
      std::fprintf(stderr, "perfbench: input generation came up short\n");
      return 1;
    }
  }
  Harness harness(args, inputs);
  FleetOptions plain;
  plain.metrics = config.metrics;
  FleetOptions scored = plain;  // The reference also scores accuracy.
  scored.score = true;
  FleetOptions saturated = plain;
  saturated.corrupt = args.corrupt;

  // Traced runs: the probe on every component, spans for one epoch in
  // trace_every per device; `flipped` differs only in the metrics setting.
  FleetOptions traced = plain;
  traced.probes = true;
  FleetOptions flipped = traced;
  flipped.metrics = !config.metrics;

  // The closed-loop passes run interleaved, round r of each in turn, so
  // that every figure samples the whole run rather than one stretch of a
  // shared host: the inline reference and the saturated pass, and in a
  // traced run the traced saturated pass and its flipped twin. One extra
  // setup per round feeds setup_s. The open-loop pass runs afterwards.
  const std::unique_ptr<Pass> inline_pass = harness.start(0, scored);
  const std::unique_ptr<Pass> saturated_pass =
      harness.start(args.workers, saturated);
  std::unique_ptr<Pass> traced_pass;
  std::unique_ptr<Pass> flipped_pass;
  if (args.trace) {
    traced_pass = harness.start(args.workers, traced);
    flipped_pass = harness.start(args.workers, flipped);
  }
  const auto round = [](int r) {
    return [r](Fleet& fleet, PassStats& stats) { fleet.run_round(r, stats); };
  };
  for (int r = 0; r < pass_rounds(config); ++r) {
    harness.step(*inline_pass, round(r));
    harness.step(*saturated_pass, round(r));
    if (args.trace) {
      harness.step(*traced_pass, round(r));
      harness.step(*flipped_pass, round(r));
    }
    harness.setup_only(plain);
  }

  Reference reference;
  double squared_error = 0.0;
  double fixes = 0.0;
  for (const auto& device : inline_pass->fleet->devices()) {
    reference.hashes.push_back(device->hash);
    reference.fixes.push_back(device->fixes);
    squared_error += device->squared_error;
    fixes += static_cast<double>(device->fixes);
  }
  harness.finish(*inline_pass, nullptr);
  harness.finish(*saturated_pass, &reference);
  const PassStats& sat = saturated_pass->stats;
  const double rate_1t = median(inline_pass->stats.round_rates);
  const double rate_n = median(sat.round_rates);
  const double epochs = static_cast<double>(sat.epochs);
  const double deliveries =
      static_cast<double>(saturated_pass->fleet->deliveries());
  const double wire_messages =
      static_cast<double>(saturated_pass->fleet->wire_messages());
  const double wire_bytes =
      static_cast<double>(saturated_pass->fleet->wire_bytes());

  std::vector<Metric> metrics;
  const bool pf = config.pipeline == Pipeline::kPfTracking;
  const bool wifi = config.pipeline == Pipeline::kWifiRooms;
  if (!args.trace) {
    // Swap time from the inline reference pass, where no task is ever in
    // flight, so it is the swap protocol's own cost. Under load a swap may
    // also wait for the lane's in-flight task; whether it does sits at a
    // knee between generator and worker speed, which made the saturated
    // pass's median flip between two modes from run to run. The traced run
    // reports the saturated pass's swaps as reconfig.replace_us_*.
    metrics = {
        {"epochs_per_s", rate_n, "1/s"},
        {"epochs_per_s_1t", rate_1t, "1/s"},
        {"cpu_us_per_epoch", ratio(sat.cpu_s * 1e6, epochs), "us"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", median(harness.setup_s()), "s"},
        {"rmse_m", std::sqrt(ratio(squared_error, fixes)), "m"},
        {"adapt_p50_us", grouped_swap_time(inline_pass->stats, 0.50), "us"},
        {"adapt_p99_us", grouped_swap_time(inline_pass->stats, 0.99), "us"},
    };
    // Open-loop latency is printed, not gated: on a shared host it follows
    // the host's CPU steal (see README.md); the traced run reports it.
    harness.run_open_loop(args.workers, plain, reference, [&](const Fleet& f) {
      const std::vector<double> latencies = all_latencies(f);
      std::printf(
          "open loop at %g epochs/s: latency p50 %.1f us, p99 %.1f us "
          "(median of 20 ms windows); whole pass p99 %.1f us, p99.9 %.1f us; "
          "%zu fixes\n",
          config.rate, windowed_latency(f, 0.50), windowed_latency(f, 0.99),
          percentile(latencies, 0.99), percentile(latencies, 0.999),
          latencies.size());
    });
    std::printf("samples: %zu bursts per pass, %zu swaps, %zu setups\n",
                sat.round_rates.size(), sat.replace_us.size(),
                harness.setup_s().size());
  } else {
    harness.finish(*traced_pass, &reference);
    harness.finish(*flipped_pass, &reference);
    const Fleet& fleet = *traced_pass->fleet;
    const PassStats& traced_sat = traced_pass->stats;
    const TracedPass saturated_traced = collect(fleet, "saturated");
    const TracedPass flipped_traced =
        collect(*flipped_pass->fleet, "saturated_flipped");
    const double resamples = static_cast<double>(fleet.resamples());
    const double updates = static_cast<double>(fleet.filter_updates());

    // Kernel replays of the inputs the probes recorded.
    const auto recorded = [&](const char* kind, int devices) {
      std::vector<perpos::core::Sample> out;
      const std::uint16_t k = component_kind(kind);
      for (const auto& device : fleet.devices()) {
        if (device->index >= devices || k >= device->recorded.size()) continue;
        out.insert(out.end(), device->recorded[k].begin(),
                   device->recorded[k].end());
      }
      return out;
    };
    Kernels kernels;
    if (!wifi) kernels.parse_ns = parse_ns(inputs);
    if (!pf) {
      kernels.resolve_ns = resolve_ns(recorded("Resolver", 4), fleet.building());
    }
    if (wifi) {
      kernels.knn_us = knn_us(inputs, *fleet.database());
      kernels.fingerprints = static_cast<double>(fleet.database()->size());
    }
    if (pf) {
      kernels.filter = filter_kernels(
          recorded("ParticleFilter", 1), fleet.channel_members(),
          *fleet.likelihood(), fleet.building(), config.particles);
    }

    // The open-loop pass, traced, on its own.
    TracedPass open_traced;
    double latency_p50 = 0.0;
    double latency_p99 = 0.0;
    const PassStats traced_open = harness.run_open_loop(
        args.workers, traced, reference, [&](const Fleet& f) {
          open_traced = collect(f, "open_loop");
          latency_p50 = windowed_latency(f, 0.50);
          latency_p99 = windowed_latency(f, 0.99);
        });

    const double hop = hop_ns(saturated_traced, kernels);
    const double hop_flipped = hop_ns(flipped_traced, kernels);
    const std::vector<double>& replace_us = saturated_traced.replace_us;
    const auto self_p50 = [&](const char* kind) {
      const auto it = saturated_traced.self_ns.find(kind);
      return it == saturated_traced.self_ns.end() ? 0.0 : median(it->second);
    };
    metrics = {
        {"latency_p50_us", latency_p50, "us"},
        {"latency_p99_us", latency_p99, "us"},
        {"gen.lag_p99_us", percentile(traced_open.lag_us, 0.99), "us"},
        {"gen.backlog_end", static_cast<double>(traced_open.backlog_end),
         "count"},
        {"exec.queue_wait_p50_us", percentile(open_traced.queue_wait_us, 0.50),
         "us"},
        {"exec.queue_wait_p99_us", percentile(open_traced.queue_wait_us, 0.99),
         "us"},
        {"exec.busy_share",
         ratio(saturated_traced.busy_ns, args.workers * traced_sat.wall_s * 1e9),
         "ratio"},
        {"exec.scaling_eff", ratio(rate_n, args.workers * rate_1t), "ratio"},
        {"core.push_us_p50", median(saturated_traced.graph_us), "us"},
        {"core.hop_ns", hop, "ns"},
        {"core.deliveries_per_epoch", ratio(deliveries, epochs), "count"},
        {"core.rss_growth_b_per_epoch", ratio(sat.rss_growth_bytes, epochs),
         "B"},
        {"core.channel_tree_us", kernels.filter.tree_us, "us"},
        {"core.channel_tree_nodes", kernels.filter.tree_nodes, "count"},
        {"obs.metrics_ns_per_hop",
         config.metrics ? hop - hop_flipped : hop_flipped - hop, "ns"},
        {"nmea.parse_ns", kernels.parse_ns, "ns"},
        {"sensors.interpret_ns", self_p50("Interpreter"), "ns"},
        {"fusion.satfilter_ns", self_p50("SatelliteFilter"), "ns"},
        {"locmodel.resolve_ns", kernels.resolve_ns, "ns"},
        {"runtime.remote_us_p50", median(saturated_traced.remote_us), "us"},
        {"runtime.msgs_per_epoch", ratio(wire_messages, epochs), "count"},
        {"runtime.wire_bytes_per_epoch", ratio(wire_bytes, epochs), "B"},
        {"reconfig.replace_us_p50", percentile(replace_us, 0.50), "us"},
        {"reconfig.replace_us_p99", percentile(replace_us, 0.99), "us"},
        {"reconfig.rejects", static_cast<double>(harness.tally().swap_failures),
         "count"},
        {"wifi.knn_us", kernels.knn_us, "us"},
        {"wifi.fingerprints_per_scan", kernels.fingerprints, "count"},
        {"fusion.pf_update_us", kernels.filter.update_us, "us"},
        {"fusion.likelihood_ns_per_particle", kernels.filter.likelihood_ns,
         "ns"},
        {"fusion.resample_share", ratio(resamples, updates), "ratio"},
        {"trace.overhead_share",
         ratio(rate_n, median(traced_sat.round_rates)) - 1.0, "ratio"},
    };
    for (const auto& [pass_name, spans] : g_spans) {
      const std::string path = args.out_dir + "/spans-" + config.name +
                               "-seed" + std::to_string(args.seed) + "-" +
                               pass_name + ".tsv";
      std::vector<const Span*> all;
      all.reserve(spans.size());
      for (const Span& s : spans) all.push_back(&s);
      if (write_spans(path, all, component_kinds())) {
        std::printf("spans: %zu written to %s\n", all.size(), path.c_str());
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      }
    }
  }

  const Tally& tally = harness.tally();
  print_result(metrics, tally, tally.failed() == 0);
  return 0;
}
