#include "perpos/core/graph.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_map>

namespace perpos::core {

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

/// Provenance buffers — the vector<Sample> behind Sample::inputs — are
/// recycled through a bounded per-thread free list. Every buffer the graph
/// hands out carries a ReleaseBuffer deleter: when its last shared_ptr
/// owner lets go, on whatever thread and whether or not its graph still
/// exists, the deleter clears it and parks it on that thread's free list,
/// which fill_emission() pops from. The shared_ptr count's own acq_rel
/// decrement orders the clear after every reader.
///
/// The shared_ptr control blocks are recycled the same way (BlockAllocator),
/// so a steady-state emission touches no heap.
///
/// Teardown is iterative: clearing a buffer destroys its samples, which
/// may release the buffers of the chain level below. Those land on
/// `t_unlinked` and the outermost release clears them in turn instead of
/// recursing, so a provenance chain of any depth frees in one stack frame.
using Buffer = std::vector<Sample>;

struct BufferCache {
  static constexpr std::size_t kMaxFree = 4096;
  std::vector<Buffer*> free;      ///< Cleared buffers, ready for reuse.
  std::vector<Buffer*> unlinked;  ///< Worklist of the outermost release.
  std::vector<void*> blocks;      ///< Raw control blocks, ready for reuse.
  ~BufferCache();
};

/// The worklist of the release in progress on this thread, if any. Like
/// t_cache_gone it is trivially destructible, so it stays usable through
/// thread and static teardown.
thread_local std::vector<Buffer*>* t_unlinked = nullptr;
/// Set once this thread's cache is destroyed: later releases delete their
/// buffers, and later emissions allocate fresh ones.
thread_local bool t_cache_gone = false;
thread_local BufferCache t_cache;

BufferCache::~BufferCache() {
  t_cache_gone = true;
  for (Buffer* buffer : free) delete buffer;  // Already cleared.
  for (void* block : blocks) ::operator delete(block);
}

/// Clear `buffer` and every buffer that clearing releases, then park each
/// in `cache` (delete it when there is none or it is full).
void release_chain(Buffer* buffer, std::vector<Buffer*>& unlinked,
                   BufferCache* cache) noexcept {
  t_unlinked = &unlinked;
  for (;;) {
    buffer->clear();
    if (cache != nullptr && cache->free.size() < BufferCache::kMaxFree) {
      cache->free.push_back(buffer);
    } else {
      delete buffer;
    }
    if (unlinked.empty()) break;
    buffer = unlinked.back();
    unlinked.pop_back();
  }
  t_unlinked = nullptr;
}

struct ReleaseBuffer {
  void operator()(Buffer* buffer) const noexcept {
    if (t_unlinked != nullptr) {
      t_unlinked->push_back(buffer);
    } else if (t_cache_gone) {
      std::vector<Buffer*> unlinked;
      release_chain(buffer, unlinked, nullptr);
    } else {
      release_chain(buffer, t_cache.unlinked, &t_cache);
    }
  }
};

/// Allocator of the control blocks of acquire_buffer()'s shared_ptrs. It
/// only ever serves that one block type, so every cached block fits.
template <class T>
struct BlockAllocator {
  using value_type = T;
  BlockAllocator() = default;
  template <class U>
  BlockAllocator(const BlockAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    if (n == 1 && !t_cache_gone && !t_cache.blocks.empty()) {
      void* block = t_cache.blocks.back();
      t_cache.blocks.pop_back();
      return static_cast<T*>(block);
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* block, std::size_t n) noexcept {
    if (n == 1 && !t_cache_gone &&
        t_cache.blocks.size() < BufferCache::kMaxFree) {
      t_cache.blocks.push_back(block);
    } else {
      ::operator delete(block);
    }
  }
  template <class U>
  bool operator==(const BlockAllocator<U>&) const noexcept {
    return true;
  }
};

std::shared_ptr<Buffer> acquire_buffer() {
  Buffer* buffer = nullptr;
  if (!t_cache_gone && !t_cache.free.empty()) {
    buffer = t_cache.free.back();
    t_cache.free.pop_back();
  } else {
    buffer = new Buffer();
  }
  return std::shared_ptr<Buffer>(buffer, ReleaseBuffer{},
                                 BlockAllocator<Buffer>{});
}

}  // namespace

/// Cached metric handles of one component; filled lazily after
/// enable_observability so the hot path never does a registry lookup.
struct ComponentMetricHandles {
  obs::Counter* emitted = nullptr;
  obs::Counter* delivered = nullptr;
  obs::Counter* rejected = nullptr;
  obs::Counter* produce_vetoed = nullptr;
  obs::Counter* consume_vetoed = nullptr;
  obs::Histogram* on_input_us = nullptr;
  /// End-to-end ingest→sink latency; created only for sinks with the
  /// latency knob on (see deliver_top()).
  obs::Histogram* e2e_latency_us = nullptr;
  obs::Counter* deadline_miss = nullptr;
};

struct ProcessingGraph::Entry {
  std::shared_ptr<ProcessingComponent> component;
  std::vector<ComponentId> consumers;
  std::vector<ComponentId> producers;
  std::vector<std::shared_ptr<ComponentFeature>> features;
  std::uint64_t sequence = 0;  ///< Logical time of the output port.
  std::uint64_t emitted = 0;

  /// Input requirements compiled to interned origin symbols, cached at
  /// add() — the per-delivery accept check is two integer compares per
  /// requirement, and input_requirements() (which returns a fresh vector)
  /// is never called on the hot path. Components must keep their
  /// requirements stable while attached (see ProcessingComponent).
  struct CompiledRequirement {
    const TypeInfo* type = nullptr;
    OriginId origin = kComponentOrigin;
    bool any_type = false;
  };
  std::vector<CompiledRequirement> compiled_requirements;
  /// Cached `!output_capabilities().empty()` — only emit-capable
  /// components record pending inputs (pure sinks would accumulate them
  /// forever), and the old code paid a vector allocation per delivery to
  /// find that out.
  bool records_provenance = false;

  /// Inputs accepted since the last emission; becomes the provenance of the
  /// next emitted sample (Fig. 4 time ranges). The running sequence range
  /// is tracked alongside so emission stamps Sample::cached_seq_min/max
  /// without rescanning.
  std::vector<Sample> pending_inputs;
  std::uint64_t pending_seq_min = 0;
  std::uint64_t pending_seq_max = 0;
  /// Oldest (minimum) Sample::ingest_us among the pending inputs; 0 when
  /// none carried one. Propagated onto the next emission so end-to-end
  /// latency follows the slowest contributing input, without rescanning.
  double pending_ingest_min = 0.0;
  /// The input currently being processed by on_input (nesting-safe via
  /// save/restore in deliver_top()); used as fallback provenance when a
  /// second emission happens after pending_inputs was consumed.
  const Sample* current_input = nullptr;

  ComponentMetricHandles metric_handles;
  std::uint64_t metric_epoch = 0;  ///< Matches Obs::epoch when handles valid.

  bool live = false;
};

/// Per-feature hook-timing histograms, keyed by feature object.
struct FeatureMetricHandles {
  obs::Histogram* produce_us = nullptr;
  obs::Histogram* consume_us = nullptr;
};

struct ProcessingGraph::Obs {
  obs::ObservabilityConfig config;
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::TraceRecorder> tracer;
  /// Owned flight recorder (config.recording); one "graph" ring.
  std::unique_ptr<obs::FlightRecorder> recorder;
  std::uint32_t rec_lane = 0;
  std::uint64_t epoch = 1;  ///< Bumped when handles must be re-resolved.
  std::unordered_map<const ComponentFeature*, FeatureMetricHandles>
      feature_handles;
  obs::Counter* deliveries_total = nullptr;
  obs::Counter* rejections_total = nullptr;
  obs::Counter* mutations_total = nullptr;
  obs::Gauge* components_gauge = nullptr;

  ComponentMetricHandles& handles(Entry& e, ComponentId id) {
    if (e.metric_epoch != epoch) {
      const obs::Labels labels{{"component", std::to_string(id)},
                               {"kind", std::string(e.component->kind())}};
      e.metric_handles.emitted =
          registry.counter("perpos_component_emitted_total", labels);
      e.metric_handles.delivered =
          registry.counter("perpos_component_delivered_total", labels);
      e.metric_handles.rejected =
          registry.counter("perpos_component_rejected_total", labels);
      e.metric_handles.produce_vetoed =
          registry.counter("perpos_component_produce_vetoed_total", labels);
      e.metric_handles.consume_vetoed =
          registry.counter("perpos_component_consume_vetoed_total", labels);
      // Without timing no latency is ever observed; don't pollute exports
      // with an empty histogram. (All uses are gated on config.timing.)
      e.metric_handles.on_input_us =
          config.timing ? registry.histogram("perpos_component_on_input_us",
                                             labels)
                        : nullptr;
      // End-to-end latency is observed at sinks only; same lazy logic.
      e.metric_handles.e2e_latency_us =
          config.latency ? registry.histogram("perpos_e2e_latency_us", labels)
                         : nullptr;
      e.metric_handles.deadline_miss =
          config.latency && config.latency_slo_us > 0.0
              ? registry.counter("perpos_e2e_deadline_miss_total", labels)
              : nullptr;
      e.metric_epoch = epoch;
    }
    return e.metric_handles;
  }

  FeatureMetricHandles& handles(const Entry& e, ComponentId id,
                                const ComponentFeature& feature) {
    auto [it, inserted] = feature_handles.try_emplace(&feature);
    if (inserted) {
      const obs::Labels labels{{"component", std::to_string(id)},
                               {"kind", std::string(e.component->kind())},
                               {"feature", std::string(feature.name())}};
      it->second.produce_us =
          registry.histogram("perpos_feature_produce_us", labels);
      it->second.consume_us =
          registry.histogram("perpos_feature_consume_us", labels);
    }
    return it->second;
  }
};

/// The lowered dispatch plan: the current structure flattened into a
/// dense, topologically-ordered node array with the edges, compiled
/// requirement checks and feature hook chains as direct index ranges.
/// Pure routing — every piece of per-component runtime state (logical
/// time, pending provenance) lives in the Entry objects, so marking the
/// plan stale on a mutation and re-lowering it on the next emission is
/// seamless. Rebuilt in place by lower(), which reuses the storage of the
/// previous lowering; never mutated between lowerings.
struct ProcessingGraph::Plan {
  struct Node {
    ProcessingComponent* component = nullptr;
    Entry* entry = nullptr;
    ComponentId id = kInvalidComponent;
    std::uint32_t edge_begin = 0;  ///< Into `edges`: dense consumer indices,
    std::uint32_t edge_count = 0;  ///< in connection order.
    std::uint32_t req_begin = 0;   ///< Into `reqs`.
    std::uint32_t req_count = 0;
    std::uint32_t feat_begin = 0;  ///< Into `features`, attach order.
    std::uint32_t feat_count = 0;
    bool records_provenance = false;
    /// Featureless and uninstrumented: deliveries to this node consume
    /// the sample in place unless a sentry is installed.
    bool deliver_in_place = false;
    /// ...and with a single consumer: emissions build their sample
    /// directly in its dispatch-stack slot.
    bool emit_in_place = false;
  };

  std::vector<Node> nodes;  ///< Topological order, sources first.
  /// ComponentId -> index into `nodes` (kNone for dead slots).
  std::vector<std::uint32_t> dense_of;
  std::vector<std::uint32_t> edges;
  std::vector<Entry::CompiledRequirement> reqs;
  std::vector<ComponentFeature*> features;
  /// Lowering's working storage (Kahn's in-degrees and order).
  std::vector<std::uint32_t> indegree;
  std::vector<ComponentId> order;
  /// Observability as of lowering (reconfiguring it marks the plan stale):
  /// metric counters, and whether timing, tracing or latency need the
  /// per-delivery instrumentation the in-place fast paths skip.
  bool metrics = false;
  bool instrumented = false;
  /// Holding pen for the sample a delivery is consuming when it does not
  /// move into pending_inputs (or while consume hooks run on it). Safe as
  /// a single slot — deliveries only start from the drain loop, never
  /// nested inside on_input, so at most one delivery uses it at a time.
  Sample scratch;

  std::uint32_t node_of(ComponentId id) const {
    if (id >= dense_of.size() || dense_of[id] == kNone) {
      throw std::invalid_argument("unknown component id");
    }
    return dense_of[id];
  }

  bool accepts(const Node& n, const Sample& sample) const noexcept {
    const TypeInfo* const type = sample.payload.type();
    const Entry::CompiledRequirement* r = reqs.data() + n.req_begin;
    for (std::uint32_t i = 0; i < n.req_count; ++i) {
      if (r[i].origin == sample.origin &&
          (r[i].any_type || r[i].type == type)) {
        return true;
      }
    }
    return false;
  }
};

namespace {

double now_wall_us() noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What() of the in-flight exception; only callable inside a catch block.
std::string current_exception_message() {
  try {
    throw;
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

namespace {

void erase_id(std::vector<ComponentId>& v, ComponentId id) {
  v.erase(std::remove(v.begin(), v.end(), id), v.end());
}

}  // namespace

std::size_t ProcessingGraph::add_mutation_listener(
    std::function<void()> listener) {
  const std::size_t token = next_listener_token_++;
  listeners_.emplace_back(token, std::move(listener));
  return token;
}

void ProcessingGraph::remove_mutation_listener(std::size_t token) {
  // Mid-notification removal (a listener detaching itself or a peer from
  // inside its callback) must not invalidate the notifying iteration:
  // tombstone the slot and let end_notify() compact once the walk is done.
  if (notify_depth_ > 0) {
    for (auto& [t, fn] : listeners_) {
      if (t == token && fn) {
        fn = nullptr;
        listeners_tombstoned_ = true;
      }
    }
    return;
  }
  listeners_.erase(
      std::remove_if(listeners_.begin(), listeners_.end(),
                     [&](const auto& p) { return p.first == token; }),
      listeners_.end());
}

std::size_t ProcessingGraph::add_mutation_observer(
    std::function<void(const GraphMutation&)> observer) {
  const std::size_t token = next_listener_token_++;
  observers_.emplace_back(token, std::move(observer));
  return token;
}

void ProcessingGraph::remove_mutation_observer(std::size_t token) {
  if (notify_depth_ > 0) {
    for (auto& [t, fn] : observers_) {
      if (t == token && fn) {
        fn = nullptr;
        observers_tombstoned_ = true;
      }
    }
    return;
  }
  observers_.erase(
      std::remove_if(observers_.begin(), observers_.end(),
                     [&](const auto& p) { return p.first == token; }),
      observers_.end());
}

void ProcessingGraph::notify_mutation(const GraphMutation& mutation) {
  // Causal connection: any structural change makes the lowered plan
  // stale; the next emission re-lowers it. Every caller already rejected
  // mid-dispatch mutation, so no dispatch is running on the old plan.
  plan_stale_ = true;
  if (obs_ && obs_->config.metrics) {
    obs_->mutations_total->inc();
    obs_->components_gauge->set(static_cast<double>(live_count_));
  }
  if (active_recorder_ != nullptr) {
    record_flight(obs::FlightEventType::kMutation, mutation.a,
                  static_cast<std::uint64_t>(mutation.kind), mutation.b);
  }
  // Walk by index up to the count captured at entry: callbacks may
  // register new callbacks (not notified for this mutation — the vector
  // may reallocate, so no iterator survives) or remove existing ones
  // (tombstoned to null by the removal paths, skipped here). Each function
  // object is copied out before the call: a reallocating registration
  // would otherwise move the object mid-execution.
  ++notify_depth_;
  try {
    const std::size_t count = listeners_.size();
    for (std::size_t i = 0; i < count; ++i) {
      if (!listeners_[i].second) continue;
      const auto fn = listeners_[i].second;
      fn();
    }
    notify_observers(mutation);
  } catch (...) {
    end_notify();
    throw;
  }
  end_notify();
}

void ProcessingGraph::notify_observers(const GraphMutation& mutation) {
  // Feature attach/detach reaches here without passing notify_mutation;
  // the flattened hook chains go stale, so the plan is marked stale on
  // this path too (attach/detach refuse to run mid-dispatch).
  plan_stale_ = true;
  ++notify_depth_;
  try {
    const std::size_t count = observers_.size();
    for (std::size_t i = 0; i < count; ++i) {
      if (!observers_[i].second) continue;
      const auto fn = observers_[i].second;
      fn(mutation);
    }
  } catch (...) {
    end_notify();
    throw;
  }
  end_notify();
}

void ProcessingGraph::end_notify() {
  if (--notify_depth_ != 0) return;
  if (listeners_tombstoned_) {
    listeners_.erase(
        std::remove_if(listeners_.begin(), listeners_.end(),
                       [](const auto& p) { return !p.second; }),
        listeners_.end());
    listeners_tombstoned_ = false;
  }
  if (observers_tombstoned_) {
    observers_.erase(
        std::remove_if(observers_.begin(), observers_.end(),
                       [](const auto& p) { return !p.second; }),
        observers_.end());
    observers_tombstoned_ = false;
  }
}

ProcessingGraph::ProcessingGraph(const sim::Clock* clock)
    : clock_(clock),
      plan_(std::make_unique<Plan>()) {}

ProcessingGraph::~ProcessingGraph() {
  // Graph teardown: give every live component a chance to flush buffered
  // data while all entries (and thus all consumers) are still intact.
  // Destructors must not throw, so teardown failures are swallowed.
  for (const auto& e : entries_) {
    if (e == nullptr || !e->live) continue;
    try {
      e->component->on_teardown();
    } catch (...) {
    }
  }
}

void ProcessingGraph::enable_observability(obs::ObservabilityConfig config) {
  check_not_dispatching("enable_observability");
  // The plan is lowered for a specific obs configuration (which hops may
  // take the uninstrumented fast paths); reconfiguring makes it stale.
  plan_stale_ = true;
  if (!obs_) {
    obs_ = std::make_unique<Obs>();
    obs_->deliveries_total =
        obs_->registry.counter("perpos_graph_deliveries_total");
    obs_->rejections_total =
        obs_->registry.counter("perpos_graph_rejections_total");
    obs_->mutations_total =
        obs_->registry.counter("perpos_graph_mutations_total");
    obs_->components_gauge = obs_->registry.gauge("perpos_graph_components");
  }
  obs_->config = config;
  // Invalidate every cached handle set: entries may hold pointers into a
  // previous registry (destroyed by disable_observability), and a config
  // change can alter which handles exist (e.g. the timing histogram). The
  // generation counter lives on the graph so it survives obs_ teardown.
  obs_->epoch = ++obs_generation_;
  if (config.tracing) {
    if (!obs_->tracer) {
      obs_->tracer =
          std::make_unique<obs::TraceRecorder>(config.trace_capacity);
    }
    // Ring eviction is otherwise silent; surface it as a counter so a
    // too-small trace buffer is visible in the metrics export.
    obs_->tracer->set_dropped_counter(
        obs_->registry.counter("perpos_obs_spans_dropped_total"));
  } else {
    obs_->tracer.reset();
  }
  if (config.recording) {
    if (!obs_->recorder) {
      obs_->recorder =
          std::make_unique<obs::FlightRecorder>(config.recorder_capacity);
      obs_->rec_lane = obs_->recorder->add_lane("graph");
    }
  } else {
    obs_->recorder.reset();
  }
  refresh_active_recorder();
  obs_->components_gauge->set(static_cast<double>(live_count_));
}

void ProcessingGraph::disable_observability() {
  check_not_dispatching("disable_observability");
  plan_stale_ = true;
  obs_.reset();
  refresh_active_recorder();
  current_span_ = 0;
}

void ProcessingGraph::set_flight_recorder(obs::FlightRecorder* recorder,
                                          std::uint32_t lane,
                                          std::uint32_t graph_tag) noexcept {
  external_recorder_ = recorder;
  if (recorder != nullptr) {
    rec_lane_ = lane;
    graph_tag_ = graph_tag;
  }
  refresh_active_recorder();
}

obs::FlightRecorder* ProcessingGraph::flight_recorder() const noexcept {
  return active_recorder_;
}

void ProcessingGraph::record_event(obs::FlightEventType type,
                                   std::uint32_t component, std::uint64_t a,
                                   std::uint64_t b,
                                   std::string_view detail) noexcept {
  if (active_recorder_ != nullptr) record_flight(type, component, a, b, detail);
}

void ProcessingGraph::refresh_active_recorder() noexcept {
  if (external_recorder_ != nullptr) {
    active_recorder_ = external_recorder_;  // rec_lane_ set at attach time.
  } else if (obs_ && obs_->recorder) {
    active_recorder_ = obs_->recorder.get();
    rec_lane_ = obs_->rec_lane;
  } else {
    active_recorder_ = nullptr;
  }
}

void ProcessingGraph::record_flight(obs::FlightEventType type,
                                    std::uint32_t component, std::uint64_t a,
                                    std::uint64_t b,
                                    std::string_view detail) noexcept {
  obs::FlightEvent event;
  event.type = type;
  event.graph = graph_tag_;
  event.component = component;
  event.a = a;
  event.b = b;
  if (!detail.empty()) event.set_detail(detail);
  active_recorder_->record(rec_lane_, event);
}

bool ProcessingGraph::observability_enabled() const noexcept {
  return obs_ != nullptr;
}

const obs::ObservabilityConfig* ProcessingGraph::observability_config()
    const noexcept {
  return obs_ ? &obs_->config : nullptr;
}

obs::MetricsRegistry* ProcessingGraph::metrics_registry() const noexcept {
  return obs_ ? &obs_->registry : nullptr;
}

obs::MetricsSnapshot ProcessingGraph::metrics() const {
  return obs_ ? obs_->registry.snapshot() : obs::MetricsSnapshot{};
}

obs::TraceRecorder* ProcessingGraph::tracer() const noexcept {
  return obs_ ? obs_->tracer.get() : nullptr;
}

ProcessingGraph::Entry& ProcessingGraph::entry(ComponentId id) {
  if (!has(id)) throw std::invalid_argument("unknown component id");
  return *entries_[id];
}

const ProcessingGraph::Entry& ProcessingGraph::entry(ComponentId id) const {
  if (!has(id)) throw std::invalid_argument("unknown component id");
  return *entries_[id];
}

bool ProcessingGraph::has(ComponentId id) const noexcept {
  return id < entries_.size() && entries_[id] != nullptr &&
         entries_[id]->live;
}

void ProcessingGraph::check_not_dispatching(const char* op) const {
  if (dispatching_) {
    throw std::logic_error(std::string("ProcessingGraph::") + op +
                           ": structural mutation during dispatch");
  }
}

ComponentId ProcessingGraph::add(
    std::shared_ptr<ProcessingComponent> component) {
  check_not_dispatching("add");
  if (!component) throw std::invalid_argument("null component");
  if (component->context().attached()) {
    throw std::invalid_argument("component already attached to a graph");
  }
  const auto id = static_cast<ComponentId>(entries_.size());
  auto e = std::make_unique<Entry>();
  e->component = std::move(component);
  e->live = true;
  e->component->context_ = ComponentContext(this, id);
  // Compile the hot-path caches once. Requirements and capabilities must
  // stay stable while the component is attached (they already had to be:
  // connect() realizability is judged against them).
  for (const InputRequirement& r : e->component->input_requirements()) {
    e->compiled_requirements.push_back(Entry::CompiledRequirement{
        r.type, intern_origin(r.feature_tag), r.any_type});
  }
  e->records_provenance = !e->component->output_capabilities().empty();
  entries_.push_back(std::move(e));
  ++live_count_;
  ++revision_;
  notify_mutation(GraphMutation{GraphMutation::Kind::kAdd, id});
  return id;
}

void ProcessingGraph::remove(ComponentId id) {
  check_not_dispatching("remove");
  // Teardown hook before any edge is cut: a component flushing buffered
  // data here still reaches its consumers.
  entry(id).component->on_teardown();
  Entry& e = entry(id);
  for (ComponentId c : e.consumers) erase_id(entries_[c]->producers, id);
  for (ComponentId p : e.producers) erase_id(entries_[p]->consumers, id);
  e.component->context_ = ComponentContext();
  for (auto& f : e.features) f->context_ = FeatureContext();
  e.live = false;
  e.component.reset();
  e.features.clear();
  --live_count_;
  ++revision_;
  notify_mutation(GraphMutation{GraphMutation::Kind::kRemove, id});
}

bool ProcessingGraph::would_cycle(ComponentId producer,
                                  ComponentId consumer) const {
  // Adding producer->consumer creates a cycle iff producer is reachable
  // from consumer.
  std::vector<ComponentId> stack{consumer};
  std::vector<bool> seen(entries_.size(), false);
  while (!stack.empty()) {
    const ComponentId n = stack.back();
    stack.pop_back();
    if (n == producer) return true;
    if (seen[n]) continue;
    seen[n] = true;
    for (ComponentId next : entries_[n]->consumers) stack.push_back(next);
  }
  return false;
}

void ProcessingGraph::connect(ComponentId producer, ComponentId consumer) {
  check_not_dispatching("connect");
  Entry& p = entry(producer);
  Entry& c = entry(consumer);
  if (producer == consumer) {
    throw std::invalid_argument("connect: self-loop");
  }
  if (std::find(p.consumers.begin(), p.consumers.end(), consumer) !=
      p.consumers.end()) {
    throw std::invalid_argument("connect: edge already exists");
  }
  // Realizability: at least one capability of the producer must satisfy a
  // requirement of the consumer (paper Sec. 2.1).
  const auto caps = capabilities(producer);
  const auto reqs = c.component->input_requirements();
  const bool realizable =
      std::any_of(caps.begin(), caps.end(), [&](const DataSpec& cap) {
        return std::any_of(reqs.begin(), reqs.end(),
                           [&](const InputRequirement& r) {
                             return r.accepts(cap.type, cap.feature_tag);
                           });
      });
  if (!realizable) {
    throw std::invalid_argument(
        "connect: no capability of '" + std::string(p.component->kind()) +
        "' satisfies a requirement of '" + std::string(c.component->kind()) +
        "'");
  }
  if (would_cycle(producer, consumer)) {
    throw std::invalid_argument("connect: edge would create a cycle");
  }
  p.consumers.push_back(consumer);
  c.producers.push_back(producer);
  ++revision_;
  notify_mutation(
      GraphMutation{GraphMutation::Kind::kConnect, producer, consumer});
}

void ProcessingGraph::disconnect(ComponentId producer, ComponentId consumer) {
  check_not_dispatching("disconnect");
  Entry& p = entry(producer);
  Entry& c = entry(consumer);
  const auto it = std::find(p.consumers.begin(), p.consumers.end(), consumer);
  if (it == p.consumers.end()) {
    throw std::invalid_argument("disconnect: edge does not exist");
  }
  p.consumers.erase(it);
  erase_id(c.producers, producer);
  ++revision_;
  notify_mutation(
      GraphMutation{GraphMutation::Kind::kDisconnect, producer, consumer});
}

void ProcessingGraph::insert_between(ComponentId node, ComponentId producer,
                                     ComponentId consumer) {
  check_not_dispatching("insert_between");
  // Validate the edge exists before mutating anything.
  const Entry& p = entry(producer);
  if (std::find(p.consumers.begin(), p.consumers.end(), consumer) ==
      p.consumers.end()) {
    throw std::invalid_argument("insert_between: edge does not exist");
  }
  disconnect(producer, consumer);
  try {
    connect(producer, node);
    connect(node, consumer);
  } catch (...) {
    // Restore the original edge on failure so the graph is unchanged.
    if (std::find(entry(producer).consumers.begin(),
                  entry(producer).consumers.end(),
                  node) != entry(producer).consumers.end()) {
      disconnect(producer, node);
    }
    connect(producer, consumer);
    throw;
  }
}

void ProcessingGraph::replace(ComponentId id,
                              std::shared_ptr<ProcessingComponent> successor,
                              ReplaceHandoff policy) {
  check_not_dispatching("replace");
  Entry& e = entry(id);
  if (!successor) throw std::invalid_argument("replace: null successor");
  if (successor->context().attached()) {
    throw std::invalid_argument(
        "replace: successor already attached to a graph");
  }
  // Validate every existing edge against the successor before anything
  // mutates. Inbound: some capability of each producer must satisfy a
  // requirement of the successor. Outbound: the successor's capabilities
  // (plus those added by the features, which stay attached) must satisfy a
  // requirement of each consumer. Same realizability rule as connect().
  const auto sreqs = successor->input_requirements();
  for (ComponentId p : e.producers) {
    const auto caps = capabilities(p);
    const bool realizable =
        std::any_of(caps.begin(), caps.end(), [&](const DataSpec& cap) {
          return std::any_of(sreqs.begin(), sreqs.end(),
                             [&](const InputRequirement& r) {
                               return r.accepts(cap.type, cap.feature_tag);
                             });
        });
    if (!realizable) {
      throw std::invalid_argument(
          "replace: no capability of '" +
          std::string(entries_[p]->component->kind()) +
          "' satisfies a requirement of successor '" +
          std::string(successor->kind()) + "'");
    }
  }
  std::vector<DataSpec> out_caps = successor->output_capabilities();
  for (const auto& f : e.features) {
    for (const TypeInfo* t : f->added_types()) {
      out_caps.push_back(DataSpec{t, std::string(f->name())});
    }
  }
  for (ComponentId c : e.consumers) {
    const auto creqs = entries_[c]->component->input_requirements();
    const bool realizable =
        std::any_of(out_caps.begin(), out_caps.end(), [&](const DataSpec& cap) {
          return std::any_of(creqs.begin(), creqs.end(),
                             [&](const InputRequirement& r) {
                               return r.accepts(cap.type, cap.feature_tag);
                             });
        });
    if (!realizable) {
      throw std::invalid_argument(
          "replace: no capability of successor '" +
          std::string(successor->kind()) + "' satisfies a requirement of '" +
          std::string(entries_[c]->component->kind()) + "'");
    }
  }

  // State migration before any wiring changes. The teardown flush runs
  // with the victim's edges intact, so buffered data still reaches its
  // consumers; the blob is serialized *after* the flush, so a later
  // restore cannot re-materialize samples that already went downstream. A
  // throwing serialize/restore aborts here — predecessor still installed.
  if (policy != ReplaceHandoff::kNone) {
    e.component->on_teardown();
    if (policy == ReplaceHandoff::kFull) {
      successor->restore_state(e.component->serialize_state());
    }
  }

  auto old = std::move(e.component);
  e.component = std::move(successor);
  e.component->context_ = ComponentContext(this, id);
  old->context_ = ComponentContext();
  // Recompile the hot-path caches against the successor; invalidate the
  // metric handles (the kind label changed). Logical time (sequence),
  // emission count, pending provenance and the features carry over — that
  // continuity is what makes a live cutover free of duplicated or dropped
  // logical-time slots.
  e.compiled_requirements.clear();
  for (const InputRequirement& r : e.component->input_requirements()) {
    e.compiled_requirements.push_back(Entry::CompiledRequirement{
        r.type, intern_origin(r.feature_tag), r.any_type});
  }
  e.records_provenance = !e.component->output_capabilities().empty();
  e.metric_epoch = 0;
  e.current_input = nullptr;
  ++revision_;
  notify_mutation(GraphMutation{GraphMutation::Kind::kReplace, id});
}

void ProcessingGraph::attach_feature(
    ComponentId host, std::shared_ptr<ComponentFeature> feature) {
  // The running plan flattened the hook chains, and the dispatch stack
  // holds its node indices: no re-lowering until dispatch ends.
  check_not_dispatching("attach_feature");
  Entry& e = entry(host);
  if (!feature) throw std::invalid_argument("null feature");
  const std::string name(feature->name());
  if (get_feature(host, name) != nullptr) {
    throw std::invalid_argument("feature '" + name + "' already attached");
  }
  for (const std::string& dep : feature->required_features()) {
    if (get_feature(host, dep) == nullptr) {
      throw std::invalid_argument("feature '" + name +
                                  "' requires missing feature '" + dep + "'");
    }
  }
  feature->context_ = FeatureContext(this, host, name);
  e.features.push_back(std::move(feature));
  notify_observers(GraphMutation{GraphMutation::Kind::kFeatureAttach, host});
}

void ProcessingGraph::detach_feature(ComponentId host, std::string_view name) {
  check_not_dispatching("detach_feature");
  Entry& e = entry(host);
  const auto it = std::find_if(
      e.features.begin(), e.features.end(),
      [&](const std::shared_ptr<ComponentFeature>& f) {
        return f->name() == name;
      });
  if (it == e.features.end()) {
    throw std::invalid_argument("feature '" + std::string(name) +
                                "' not attached");
  }
  (*it)->context_ = FeatureContext();
  if (obs_) obs_->feature_handles.erase(it->get());
  e.features.erase(it);
  notify_observers(GraphMutation{GraphMutation::Kind::kFeatureDetach, host});
}

ComponentFeature* ProcessingGraph::get_feature(ComponentId host,
                                               std::string_view name) const {
  for (const auto& f : features_of(host)) {
    if (f->name() == name) return f.get();
  }
  return nullptr;
}

const std::vector<std::shared_ptr<ComponentFeature>>&
ProcessingGraph::features_of(ComponentId host) const {
  return entry(host).features;
}

std::vector<ComponentId> ProcessingGraph::components() const {
  std::vector<ComponentId> out;
  out.reserve(live_count_);
  for (ComponentId id = 0; id < entries_.size(); ++id) {
    if (has(id)) out.push_back(id);
  }
  return out;
}

ComponentInfo ProcessingGraph::info(ComponentId id) const {
  const Entry& e = entry(id);
  ComponentInfo out;
  out.id = id;
  out.kind = std::string(e.component->kind());
  out.producers = e.producers;
  out.consumers = e.consumers;
  for (const auto& f : e.features) out.feature_names.emplace_back(f->name());
  out.capabilities = capabilities(id);
  out.emitted = e.emitted;
  return out;
}

ProcessingComponent& ProcessingGraph::component(ComponentId id) const {
  return *entry(id).component;
}

std::shared_ptr<ProcessingComponent> ProcessingGraph::component_ptr(
    ComponentId id) const {
  return entry(id).component;
}

std::vector<ComponentId> ProcessingGraph::sources() const {
  std::vector<ComponentId> out;
  for (ComponentId id : components()) {
    if (entry(id).producers.empty()) out.push_back(id);
  }
  return out;
}

std::vector<ComponentId> ProcessingGraph::sinks() const {
  std::vector<ComponentId> out;
  for (ComponentId id : components()) {
    if (entry(id).consumers.empty()) out.push_back(id);
  }
  return out;
}

std::vector<DataSpec> ProcessingGraph::capabilities(ComponentId id) const {
  const Entry& e = entry(id);
  std::vector<DataSpec> out = e.component->output_capabilities();
  for (const auto& f : e.features) {
    for (const TypeInfo* t : f->added_types()) {
      out.push_back(DataSpec{t, std::string(f->name())});
    }
  }
  return out;
}

// --- Lowered dispatch --------------------------------------------------------

void ProcessingGraph::lower() {
  Plan& plan = *plan_;
  plan.nodes.clear();
  plan.edges.clear();
  plan.reqs.clear();
  plan.features.clear();
  plan.dense_of.assign(entries_.size(), kNone);
  plan.metrics = obs_ != nullptr && obs_->config.metrics;
  plan.instrumented = obs_ != nullptr && (obs_->config.timing ||
                                          obs_->config.tracing ||
                                          obs_->config.latency);

  // Topological order via Kahn's algorithm, seeded with the sources in
  // ascending id order — deterministic, and connect() already rejected
  // cycles, so every live node is reached.
  std::vector<std::uint32_t>& indegree = plan.indegree;
  std::vector<ComponentId>& order = plan.order;
  indegree.assign(entries_.size(), 0);
  order.clear();
  for (ComponentId id = 0; id < entries_.size(); ++id) {
    if (!has(id)) continue;
    indegree[id] = static_cast<std::uint32_t>(entries_[id]->producers.size());
    if (indegree[id] == 0) order.push_back(id);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (ComponentId c : entries_[order[head]]->consumers) {
      if (--indegree[c] == 0) order.push_back(c);
    }
  }
  for (std::size_t d = 0; d < order.size(); ++d) {
    plan.dense_of[order[d]] = static_cast<std::uint32_t>(d);
  }

  for (ComponentId id : order) {
    Entry& e = *entries_[id];
    Plan::Node n;
    n.component = e.component.get();
    n.entry = &e;
    n.id = id;
    n.edge_begin = static_cast<std::uint32_t>(plan.edges.size());
    for (ComponentId c : e.consumers) plan.edges.push_back(plan.dense_of[c]);
    n.edge_count = static_cast<std::uint32_t>(e.consumers.size());
    n.req_begin = static_cast<std::uint32_t>(plan.reqs.size());
    plan.reqs.insert(plan.reqs.end(), e.compiled_requirements.begin(),
                     e.compiled_requirements.end());
    n.req_count = static_cast<std::uint32_t>(e.compiled_requirements.size());
    n.feat_begin = static_cast<std::uint32_t>(plan.features.size());
    for (const auto& f : e.features) plan.features.push_back(f.get());
    n.feat_count = static_cast<std::uint32_t>(e.features.size());
    n.records_provenance = e.records_provenance;
    n.deliver_in_place = n.feat_count == 0 && !plan.instrumented;
    n.emit_in_place = n.deliver_in_place && n.edge_count == 1;
    plan.nodes.push_back(n);
  }
  plan_stale_ = false;
}

inline void ProcessingGraph::fill_emission(Sample& sample, Entry& e,
                                           ComponentId producer,
                                           Payload&& payload, OriginId origin,
                                           sim::SimTime now) {
  sample.payload = std::move(payload);
  sample.timestamp = now;
  sample.producer = producer;
  sample.sequence = ++e.sequence;
  sample.origin = origin;
  // Provenance: everything consumed since the previous emission; when that
  // was already claimed by an earlier emission in the same on_input call,
  // fall back to the input being processed right now. Buffers are
  // recycled cleared but with their capacity, so the swap hands the
  // accumulated samples to the outgoing buffer and leaves that capacity
  // behind for the next accumulation round.
  if (!e.pending_inputs.empty()) {
    std::shared_ptr<Buffer> buffer = acquire_buffer();
    buffer->swap(e.pending_inputs);
    sample.cached_seq_min = e.pending_seq_min;
    sample.cached_seq_max = e.pending_seq_max;
    sample.ingest_us = e.pending_ingest_min;
    e.pending_seq_min = 0;
    e.pending_seq_max = 0;
    e.pending_ingest_min = 0.0;
    sample.inputs = std::move(buffer);
  } else if (e.current_input != nullptr) {
    std::shared_ptr<Buffer> buffer = acquire_buffer();
    buffer->push_back(*e.current_input);
    sample.cached_seq_min = e.current_input->sequence;
    sample.cached_seq_max = e.current_input->sequence;
    sample.ingest_us = e.current_input->ingest_us;
    sample.inputs = std::move(buffer);
  }
  // Latency tracking: a root emission (no inherited ingest stamp) marks the
  // moment its data entered the graph; sinks subtract this on delivery.
  if (plan_->instrumented && obs_->config.latency && sample.ingest_us == 0.0) {
    sample.ingest_us = now_wall_us();
  }
}

bool ProcessingGraph::run_produce_hooks(std::uint32_t node, Sample& sample) {
  const Plan::Node& n = plan_->nodes[node];
  // A hook may modify the sample but not its data type; returning false
  // drops the emission.
  Obs* const obs = obs_.get();
  const bool timing = plan_->instrumented && obs->config.timing;
  const TypeInfo* const original_type = sample.payload.type();
  ComponentFeature* const* feats = plan_->features.data() + n.feat_begin;
  for (std::uint32_t i = 0; i < n.feat_count; ++i) {
    ComponentFeature& f = *feats[i];
    bool keep = false;
    if (timing) {
      const double t0 = now_wall_us();
      keep = f.produce(sample);
      obs->handles(*n.entry, n.id, f).produce_us->observe(now_wall_us() - t0);
    } else {
      keep = f.produce(sample);
    }
    if (!keep) {
      if (plan_->metrics) obs->handles(*n.entry, n.id).produce_vetoed->inc();
      retire(*n.entry, sample);
      return false;
    }
    if (sample.payload.type() != original_type) {
      throw std::logic_error("feature '" + std::string(f.name()) +
                             "' changed the data type in produce()");
    }
  }
  return true;
}

inline void ProcessingGraph::announce(ComponentId producer, const Entry& e,
                                      const Sample& sample) {
  if (active_recorder_ != nullptr) {
    record_flight(obs::FlightEventType::kEmit, producer, sample.sequence);
  }
  if (plan_->instrumented && obs_->tracer) bind_span(producer, e, sample);
  if (sentry_ != nullptr) sentry_->on_emit(sample);
}

void ProcessingGraph::bind_span(ComponentId producer, const Entry& e,
                                const Sample& sample) {
  // Flow tracing: bind the sample to the span it was produced under. An
  // emission during dispatch belongs to the producer's open on_input span;
  // an external push (a source) gets an instantaneous root span of its own.
  obs::TraceRecorder& tracer = *obs_->tracer;
  std::uint64_t span = current_span_;
  if (span == 0) {
    span = tracer.open(std::string(e.component->kind()) + ".emit", producer,
                       producer, sample.sequence, 0);
    tracer.close(span);
  }
  tracer.bind_sample(producer, sample.sequence, span);
}

void ProcessingGraph::retire(const Entry& e, const Sample& dying) {
  // The component's own on_input may still be reading the input that the
  // claimed provenance buffer now stores (see deliver_top()); hold the
  // buffer until that delivery ends rather than let the dying emission
  // release it, which would clear that input.
  if (e.current_input != nullptr && dying.inputs != nullptr &&
      !dying.inputs->empty() && &dying.inputs->back() == e.current_input) {
    held_ = dying.inputs;
  }
}

void ProcessingGraph::enqueue(Sample&& sample, std::uint32_t node) {
  const Plan::Node& n = plan_->nodes[node];
  const std::uint32_t* consumers = plan_->edges.data() + n.edge_begin;
  // Insert this emission's delivery block at the current frame base. Blocks
  // of later emissions within the same on_input (or hook) frame land below
  // earlier ones, and within a block consumers are laid out in reverse, so
  // the LIFO drain visits everything in depth-first order: emissions in
  // emit order, each fully propagated through its consumer subtree before
  // the next, consumers in connection order.
  const auto base = dispatch_stack_.begin() +
                    static_cast<std::ptrdiff_t>(current_frame_base_);
  if (n.edge_count == 1) {
    if (current_frame_base_ == dispatch_stack_.size()) {
      // First emission of this frame: the insert point is the top, so
      // skip vector::insert's shifting machinery entirely.
      PendingDelivery& slot = dispatch_stack_.emplace_back();
      slot.sample = std::move(sample);
      slot.node = consumers[0];
      return;
    }
    dispatch_stack_.insert(base, PendingDelivery{std::move(sample),
                                                 consumers[0]});
    return;
  }
  std::vector<PendingDelivery> block;
  block.reserve(n.edge_count);
  for (std::uint32_t i = n.edge_count; i-- > 1;) {
    block.push_back(PendingDelivery{sample, consumers[i]});
  }
  block.push_back(PendingDelivery{std::move(sample), consumers[0]});
  dispatch_stack_.insert(base, std::make_move_iterator(block.begin()),
                         std::make_move_iterator(block.end()));
}

void ProcessingGraph::drain() {
  dispatching_ = true;
  drain_cascade_ = 0;
  try {
    while (!dispatch_stack_.empty()) deliver_top();
  } catch (...) {
    // Abandoned sibling deliveries are dropped and the graph is
    // dispatchable again.
    dispatch_stack_.clear();
    current_frame_base_ = 0;
    dispatching_ = false;
    plan_->scratch = Sample();
    throw;
  }
  current_frame_base_ = 0;
  dispatching_ = false;
}

/// Deliver the top of the dispatch stack. An uninstrumented delivery to a
/// featureless consumer with no sentry installed consumes the sample in
/// place: one move (stack slot -> pending_inputs or the plan's scratch).
/// Otherwise the sentry, consume hooks or instrumentation run first, and
/// since they may emit while the sample is in flight, it moves off the
/// stack before they do.
void ProcessingGraph::deliver_top() {
  Plan& plan = *plan_;
  Obs* const obs = obs_.get();
  PendingDelivery& top = dispatch_stack_.back();
  Plan::Node& n = plan.nodes[top.node];
  Entry& c = *n.entry;
  // Accept check against the compiled requirements: two integer compares
  // per requirement, no vector materialization, no string compare.
  if (!plan.accepts(n, top.sample)) {
    if (plan.metrics) {
      obs->handles(c, n.id).rejected->inc();
      obs->rejections_total->inc();
    }
    dispatch_stack_.pop_back();
    return;
  }

  // One dispatch frame covers everything this delivery triggers: emissions
  // made by consume hooks and by on_input both insert their delivery
  // blocks at this base, so they drain immediately after this delivery —
  // before any previously-pending delivery (e.g. to the emitter's other
  // consumers). Consume-hook emissions enqueue first and therefore pop
  // first (later blocks at the same base land below earlier ones), then
  // on_input emissions, each in emit order.
  const std::size_t saved_frame_base = current_frame_base_;
  const bool hooked = !n.deliver_in_place || sentry_ != nullptr;
  Sample* sample = &top.sample;
  if (hooked) {
    plan.scratch = std::move(top.sample);
    dispatch_stack_.pop_back();
    sample = &plan.scratch;
    if (sentry_ != nullptr) {
      sentry_->on_deliver(*sample, n.id, dispatch_stack_.size(),
                          ++drain_cascade_);
    }
    current_frame_base_ = dispatch_stack_.size();
    // Consume hooks mutate the delivered sample in place (the emitter
    // queued one copy per consumer).
    const bool timing = plan.instrumented && obs->config.timing;
    const TypeInfo* const original_type = sample->payload.type();
    ComponentFeature* const* feats = plan.features.data() + n.feat_begin;
    for (std::uint32_t i = 0; i < n.feat_count; ++i) {
      ComponentFeature& f = *feats[i];
      bool keep = false;
      if (timing) {
        const double t0 = now_wall_us();
        keep = f.consume(*sample);
        obs->handles(c, n.id, f).consume_us->observe(now_wall_us() - t0);
      } else {
        keep = f.consume(*sample);
      }
      if (!keep) {
        // Emissions already made by earlier hooks stay queued.
        if (plan.metrics) obs->handles(c, n.id).consume_vetoed->inc();
        current_frame_base_ = saved_frame_base;
        plan.scratch = Sample();
        return;
      }
      if (sample->payload.type() != original_type) {
        current_frame_base_ = saved_frame_base;
        throw std::logic_error("feature '" + std::string(f.name()) +
                               "' changed the data type in consume()");
      }
    }
  }

  ++deliveries_;
  if (plan.metrics) {
    obs->handles(c, n.id).delivered->inc();
    obs->deliveries_total->inc();
  }
  const ComponentId sample_producer = sample->producer;
  const std::uint64_t sample_sequence = sample->sequence;
  if (active_recorder_ != nullptr) {
    record_flight(obs::FlightEventType::kDeliver, n.id, sample_producer,
                  sample_sequence);
  }
  // Record provenance only for components that can emit; pure sinks
  // (applications) would otherwise accumulate pending inputs forever. The
  // running sequence range feeds Sample::cached_seq_min/max at emit time.
  // The sample moves into pending and the component reads the stored
  // element; the reference stays valid across a nested emission claiming
  // the pending batch (vector::swap exchanges storage without moving
  // elements, and retire() holds a claimed buffer whose emission dies
  // before this delivery ends). No reallocation can invalidate it either:
  // further push_backs to this component's pending require another
  // delivery to it, and deliveries only start from the drain loop, never
  // inside on_input.
  const Sample* input = &plan.scratch;
  if (n.records_provenance) {
    if (c.pending_seq_min == 0 || sample_sequence < c.pending_seq_min) {
      c.pending_seq_min = sample_sequence;
    }
    if (sample_sequence > c.pending_seq_max) {
      c.pending_seq_max = sample_sequence;
    }
    if (sample->ingest_us != 0.0 &&
        (c.pending_ingest_min == 0.0 ||
         sample->ingest_us < c.pending_ingest_min)) {
      c.pending_ingest_min = sample->ingest_us;
    }
    c.pending_inputs.push_back(std::move(*sample));
    input = &c.pending_inputs.back();
  } else if (!hooked) {
    plan.scratch = std::move(*sample);
  }
  if (!hooked) {
    dispatch_stack_.pop_back();
    current_frame_base_ = dispatch_stack_.size();
  }

  const std::uint64_t saved_span = current_span_;
  std::uint64_t span = 0;
  double t0 = 0.0;
  if (plan.instrumented) {
    // Open the flow span for this delivery: its parent is the span under
    // which the sample was emitted, so span ancestry == provenance chain.
    if (obs->tracer) {
      const std::uint64_t parent =
          obs->tracer->span_for_sample(sample_producer, sample_sequence);
      span = obs->tracer->open(std::string(n.component->kind()) + ".on_input",
                               n.id, sample_producer, sample_sequence, parent);
      current_span_ = span;
    }
    // End-to-end latency is observed when the sample *arrives* at a sink:
    // ingest→sink covers every upstream hop but not the sink's own
    // on_input (that is what on_input_us measures). The delivery span
    // doubles as the histogram exemplar, linking an SLO-busting bucket to
    // its trace.
    if (obs->config.latency && n.edge_count == 0 && input->ingest_us != 0.0) {
      ComponentMetricHandles& h = obs->handles(c, n.id);
      if (h.e2e_latency_us != nullptr) {
        const double e2e = now_wall_us() - input->ingest_us;
        h.e2e_latency_us->observe_with_exemplar(e2e, span);
        if (h.deadline_miss != nullptr && e2e > obs->config.latency_slo_us) {
          h.deadline_miss->inc();
        }
      }
    }
    if (obs->config.timing) t0 = now_wall_us();
  }

  // While on_input runs, pull the likely next hop into cache: a relay's
  // emission immediately dispatches to its first consumer.
  if (n.edge_count != 0) {
    const Plan::Node& next = plan.nodes[plan.edges[n.edge_begin]];
    __builtin_prefetch(&next, 0, 3);
    __builtin_prefetch(next.entry, 1, 3);
  }
  const Sample* saved = c.current_input;
  c.current_input = input;
  try {
    n.component->on_input(*input);
  } catch (...) {
    c.current_input = saved;
    current_frame_base_ = saved_frame_base;
    held_.reset();
    if (span != 0) obs->tracer->close(span);
    current_span_ = saved_span;
    if (active_recorder_ != nullptr) {
      record_flight(obs::FlightEventType::kTaskFailed, n.id, sample_producer,
                    sample_sequence, current_exception_message());
    }
    throw;
  }
  c.current_input = saved;
  current_frame_base_ = saved_frame_base;
  if (held_ != nullptr) held_.reset();
  if (plan.instrumented) {
    if (obs->config.timing) {
      obs->handles(c, n.id).on_input_us->observe(now_wall_us() - t0);
    }
    if (span != 0) obs->tracer->close(span);
    current_span_ = saved_span;
  }
  // The consumed sample dies here; unless the component retained a copy,
  // that releases the provenance chain it heads back to the free list.
  if (!n.records_provenance) plan.scratch = Sample();
}

void ProcessingGraph::emit_from(ComponentId producer, Payload payload,
                                OriginId origin) {
  if (plan_stale_) lower();
  Plan& plan = *plan_;
  const std::uint32_t node = plan.node_of(producer);
  const Plan::Node& n = plan.nodes[node];
  Entry& e = *n.entry;
  const sim::SimTime now =
      clock_ != nullptr ? clock_->now() : sim::SimTime::zero();

  if (n.emit_in_place && current_frame_base_ == dispatch_stack_.size()) {
    // Hot path for an uninstrumented, featureless single-consumer emission
    // opening its frame (every hop of a straight pipeline): build the
    // sample directly in its dispatch-stack slot, skipping the
    // local-then-enqueue move. No produce hook can veto or emit while the
    // slot reference is live.
    PendingDelivery& slot = dispatch_stack_.emplace_back();
    slot.node = plan.edges[n.edge_begin];
    try {
      fill_emission(slot.sample, e, producer, std::move(payload), origin, now);
      ++e.emitted;
      if (plan.metrics) obs_->handles(e, producer).emitted->inc();
      announce(producer, e, slot.sample);
    } catch (...) {
      dispatch_stack_.pop_back();
      throw;
    }
    if (!dispatching_) drain();
    return;
  }

  Sample sample;
  fill_emission(sample, e, producer, std::move(payload), origin, now);
  if (!run_produce_hooks(node, sample)) return;
  ++e.emitted;
  if (plan.metrics) obs_->handles(e, producer).emitted->inc();
  announce(producer, e, sample);
  if (n.edge_count == 0) {
    retire(e, sample);
    return;
  }
  enqueue(std::move(sample), node);
  if (!dispatching_) drain();
}

void ProcessingGraph::emit_batch_from(ComponentId producer,
                                      std::vector<Payload> payloads,
                                      OriginId origin) {
  if (payloads.empty()) return;
  if (plan_stale_) lower();
  Plan& plan = *plan_;
  const std::uint32_t node = plan.node_of(producer);
  const Plan::Node& n = plan.nodes[node];
  Entry& e = *n.entry;

  // Treat the burst as one dispatch frame: deliveries accumulate on the
  // work stack and drain once at the end, in exactly the order N
  // individual emit calls would have produced (see enqueue()).
  const bool was_dispatching = dispatching_;
  dispatching_ = true;
  std::uint64_t emitted_in_batch = 0;
  const auto count_emitted = [&] {
    if (emitted_in_batch > 0 && plan.metrics) {
      obs_->handles(e, producer).emitted->inc(emitted_in_batch);
    }
  };
  try {
    const sim::SimTime now =
        clock_ != nullptr ? clock_->now() : sim::SimTime::zero();
    for (Payload& payload : payloads) {
      Sample sample;
      fill_emission(sample, e, producer, std::move(payload), origin, now);
      if (!run_produce_hooks(node, sample)) continue;
      ++e.emitted;
      ++emitted_in_batch;
      announce(producer, e, sample);
      if (n.edge_count == 0) {
        retire(e, sample);
      } else {
        enqueue(std::move(sample), node);
      }
    }
  } catch (...) {
    dispatching_ = was_dispatching;
    count_emitted();
    if (!was_dispatching) {
      dispatch_stack_.clear();
      current_frame_base_ = 0;
    }
    throw;
  }
  dispatching_ = was_dispatching;
  count_emitted();
  if (!was_dispatching) drain();
}

}  // namespace perpos::core
