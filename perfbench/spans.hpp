#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

/// \file spans.hpp
/// In-memory spans for the traced run. Each thread that records (the
/// generator, and every device lane) owns one SpanBuffer, so recording
/// takes no lock; the buffers are merged and written out after the run.
/// A span carries its cause (`parent`) and the epoch it belongs to
/// (`trace`), so every span of one epoch shares a trace id.

namespace perfbench {

/// Steady-clock nanoseconds.
std::int64_t now_ns();

enum class SpanKind : std::uint8_t {
  kPost,       ///< engine.post of one epoch task (generator thread).
  kTask,       ///< The lane task body of one epoch.
  kPush,       ///< source->push of the epoch's sensor data.
  kRunAll,     ///< scheduler.run_all delivering the remoted hop.
  kComponent,  ///< One delivery into a component (probe feature).
  kListener,   ///< The application listener callback.
  kReplace,    ///< LiveReconfigurator::replace (generator thread).
};

const char* span_kind_name(SpanKind kind);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span.
  std::uint64_t trace = 0;   ///< device << 32 | epoch.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanKind kind = SpanKind::kTask;
  std::uint16_t component = 0;  ///< Component-kind index for kComponent.

  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// Append-only span store written by one thread at a time.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint32_t owner) : owner_(owner) {}

  /// Open a span; returns its id (never 0).
  std::uint64_t open(SpanKind kind, std::uint64_t parent, std::uint64_t trace,
                     std::int64_t start_ns, std::uint16_t component = 0);
  void close(std::uint64_t id, std::int64_t end_ns);

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::uint32_t owner_;
  std::vector<Span> spans_;
};

/// Self time of every span in `spans`: its duration minus the part of its
/// interval that its children cover.
std::unordered_map<std::uint64_t, std::int64_t> self_times(
    const std::vector<const Span*>& spans);

/// Write spans as tab-separated lines (id, parent, trace, kind, component,
/// start, duration). Returns false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<const Span*>& spans,
                 const std::vector<std::string>& component_names);

}  // namespace perfbench
