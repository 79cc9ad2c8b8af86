#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPost: return "engine.post";
    case SpanKind::kTask: return "lane.task";
    case SpanKind::kPush: return "source.push";
    case SpanKind::kRunAll: return "scheduler.run_all";
    case SpanKind::kComponent: return "component";
    case SpanKind::kListener: return "listener";
    case SpanKind::kReplace: return "reconfig.replace";
  }
  return "?";
}

std::uint64_t SpanBuffer::open(SpanKind kind, std::uint64_t parent,
                               std::uint64_t trace, std::int64_t start_ns,
                               std::uint16_t component) {
  Span span;
  span.id = (static_cast<std::uint64_t>(owner_) << 40) | (spans_.size() + 1);
  span.parent = parent;
  span.trace = trace;
  span.start_ns = start_ns;
  span.end_ns = start_ns;
  span.kind = kind;
  span.component = component;
  spans_.push_back(span);
  return span.id;
}

void SpanBuffer::close(std::uint64_t id, std::int64_t end_ns) {
  const std::uint64_t index = (id & ((1ull << 40) - 1)) - 1;
  spans_[index].end_ns = end_ns;
}

std::unordered_map<std::uint64_t, std::int64_t> self_times(
    const std::vector<const Span*>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span* s : spans) {
    if (s->parent != 0) children[s->parent].push_back(s);
  }
  std::unordered_map<std::uint64_t, std::int64_t> self;
  self.reserve(spans.size());
  for (const Span* s : spans) {
    std::int64_t covered = 0;
    const auto it = children.find(s->id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      for (const Span* c : it->second) {
        iv.emplace_back(std::max(c->start_ns, s->start_ns),
                        std::min(c->end_ns, s->end_ns));
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t lo = 0;
      std::int64_t hi = -1;
      for (const auto& [a, b] : iv) {
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    self[s->id] = s->duration_ns() - covered;
  }
  return self;
}

bool write_spans(const std::string& path, const std::vector<const Span*>& spans,
                 const std::vector<std::string>& component_names) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!out) return false;
  std::fprintf(out.get(), "id\tparent\ttrace\tname\tstart_ns\tdur_ns\n");
  for (const Span* s : spans) {
    const char* name = span_kind_name(s->kind);
    if (s->kind == SpanKind::kComponent &&
        s->component < component_names.size()) {
      name = component_names[s->component].c_str();
    }
    std::fprintf(out.get(), "%llx\t%llx\t%llx\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s->id),
                 static_cast<unsigned long long>(s->parent),
                 static_cast<unsigned long long>(s->trace), name,
                 static_cast<long long>(s->start_ns),
                 static_cast<long long>(s->duration_ns()));
  }
  return std::ferror(out.get()) == 0;
}

}  // namespace perfbench
