#include "src/core/trace_timeline.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <unordered_map>
#include <utility>

#include "src/proto/message.h"

namespace swift {

namespace {

// Midpoint of a span on its own node's clock.
uint64_t Midpoint(const Span& span) {
  return span.start_ns + span.duration_ns() / 2;
}

std::string NodeName(uint32_t node) {
  return node == 0 ? std::string("client") : "node:" + std::to_string(node);
}

// The span's operation, for display: the request's MessageType for RPC-level
// spans, the label for client roots.
std::string SpanOpName(const Span& span) {
  if (!span.label.empty()) {
    return span.label;
  }
  if (span.op != 0 && span.op <= static_cast<uint8_t>(MessageType::kTraceReply)) {
    return MessageTypeName(static_cast<MessageType>(span.op));
  }
  return "span";
}

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(ns) / 1e6);
  return buf;
}

struct AlignedSpan {
  const Span* span = nullptr;
  int64_t offset_ns = 0;  // add to this span's timestamps to reach root time
  bool offset_known = false;

  int64_t start() const { return static_cast<int64_t>(span->start_ns) + offset_ns; }
  int64_t end() const { return static_cast<int64_t>(span->end_ns) + offset_ns; }
};

}  // namespace

Result<TraceTimeline> BuildTraceTimeline(const std::vector<Span>& all, uint64_t trace_id) {
  // Resolve the target trace: with no explicit id, the latest-starting root
  // span present (the most recent client operation in the input).
  if (trace_id == 0) {
    const Span* newest_root = nullptr;
    for (const Span& span : all) {
      if (span.parent_span_id == 0 && span.trace_id != 0 &&
          (newest_root == nullptr || span.start_ns > newest_root->start_ns)) {
        newest_root = &span;
      }
    }
    if (newest_root == nullptr) {
      return NotFoundError("no root span in the input");
    }
    trace_id = newest_root->trace_id;
  }

  std::vector<AlignedSpan> spans;
  for (const Span& span : all) {
    if (span.trace_id == trace_id) {
      spans.push_back(AlignedSpan{&span, 0, false});
    }
  }
  if (spans.empty()) {
    return NotFoundError("no spans recorded for trace " + std::to_string(trace_id));
  }

  // Index and parent/child edges. Span ids are process-seeded, so one map
  // across nodes suffices; a duplicate id (astronomically unlikely within
  // one trace) keeps the first occurrence.
  std::unordered_map<uint32_t, size_t> by_id;
  std::unordered_map<uint32_t, std::vector<size_t>> children;
  size_t root_index = spans.size();
  for (size_t i = 0; i < spans.size(); ++i) {
    by_id.emplace(spans[i].span->span_id, i);
    children[spans[i].span->parent_span_id].push_back(i);
    if (spans[i].span->parent_span_id == 0 &&
        (root_index == spans.size() ||
         spans[i].span->start_ns < spans[root_index].span->start_ns)) {
      root_index = i;
    }
  }
  if (root_index == spans.size()) {
    return InvalidArgumentError(
        "trace has no root span — collect the client process's spans too "
        "(swift_cli --trace-out / --trace-in)");
  }

  // Clock-offset alignment: walk parent→child edges breadth-first from the
  // root. A child on an un-aligned node implies offset = parent's aligned
  // midpoint − child's raw midpoint (symmetric-delay assumption); average
  // the implied offsets over every edge into that node.
  struct NodeOffset {
    int64_t sum = 0;
    int64_t count = 0;
    int64_t value() const { return count == 0 ? 0 : sum / count; }
  };
  std::unordered_map<uint32_t, NodeOffset> node_offsets;
  node_offsets[spans[root_index].span->node].count = 1;  // offset 0 by definition
  std::vector<size_t> frontier{root_index};
  spans[root_index].offset_known = true;
  while (!frontier.empty()) {
    std::vector<size_t> next;
    for (size_t parent_index : frontier) {
      AlignedSpan& parent = spans[parent_index];
      auto edge = children.find(parent.span->span_id);
      if (edge == children.end()) {
        continue;
      }
      for (size_t child_index : edge->second) {
        AlignedSpan& child = spans[child_index];
        if (child.offset_known) {
          continue;
        }
        const uint32_t node = child.span->node;
        if (node != parent.span->node) {
          const int64_t parent_mid =
              static_cast<int64_t>(Midpoint(*parent.span)) + parent.offset_ns;
          NodeOffset& offset = node_offsets[node];
          offset.sum += parent_mid - static_cast<int64_t>(Midpoint(*child.span));
          ++offset.count;
        }
        child.offset_ns = node_offsets[node].value();
        child.offset_known = true;
        next.push_back(child_index);
      }
    }
    frontier = std::move(next);
  }
  // Second pass: every span of an aligned node gets the node's final
  // (averaged) offset — including orphans whose parent span was overwritten
  // in a ring but whose node is known.
  size_t aligned = 0;
  for (AlignedSpan& span : spans) {
    auto offset = node_offsets.find(span.span->node);
    if (offset != node_offsets.end() && offset->second.count > 0) {
      span.offset_ns = offset->second.value();
      span.offset_known = true;
      ++aligned;
    }
  }

  const AlignedSpan& root = spans[root_index];
  const int64_t root_start = root.start();
  const int64_t root_end = root.end();
  const uint64_t root_duration =
      root_end > root_start ? static_cast<uint64_t>(root_end - root_start) : 1;

  TraceTimeline timeline;
  timeline.trace_id = trace_id;
  timeline.span_count = spans.size();
  timeline.node_count = node_offsets.size();

  // --- render the causal tree ---------------------------------------------
  std::string& text = timeline.text;
  char line[256];
  std::snprintf(line, sizeof(line), "trace 0x%016" PRIx64 ": %zu spans across %zu node(s)\n",
                trace_id, spans.size(), timeline.node_count);
  text += line;

  std::vector<bool> rendered(spans.size(), false);
  std::function<void(size_t, int)> render = [&](size_t index, int depth) {
    if (rendered[index]) {
      return;  // cycle guard (corrupt parent links)
    }
    rendered[index] = true;
    const AlignedSpan& entry = spans[index];
    const Span& span = *entry.span;

    std::string where = NodeName(span.node);
    if (span.shard != 0) {
      where += "/shard" + std::to_string(span.shard - 1);
    }
    const double rel_s = static_cast<double>(entry.start() - root_start) / 1e9;
    std::snprintf(line, sizeof(line), "%*s%+.6fs  [%-14s] %-12s", 2 + depth * 2, "", rel_s,
                  where.c_str(), SpanOpName(span).c_str());
    text += line;
    if (span.request_id != 0) {
      text += " req=" + std::to_string(span.request_id);
    }
    text += "  " + FormatMs(span.duration_ns());
    if (span.status != 0) {
      text += " status=" + std::to_string(span.status);
    }
    if (span.sampled) {
      text += " *";
    }
    text += "\n";

    // Stage events, chronological; retransmits collapse into one count.
    std::vector<const SpanEvent*> events;
    uint32_t retransmits = 0;
    for (const SpanEvent& event : span.events) {
      if (event.stage == SpanStage::kRetransmit) {
        ++retransmits;
      } else {
        events.push_back(&event);
      }
    }
    std::sort(events.begin(), events.end(),
              [](const SpanEvent* a, const SpanEvent* b) { return a->at_ns < b->at_ns; });
    if (!events.empty() || retransmits > 0) {
      std::snprintf(line, sizeof(line), "%*s", 4 + depth * 2, "");
      text += line;
      bool first = true;
      for (const SpanEvent* event : events) {
        if (!first) {
          text += " | ";
        }
        first = false;
        text += SpanStageName(event->stage);
        text += " " + FormatMs(event->dur_ns);
      }
      if (retransmits > 0) {
        if (!first) {
          text += " | ";
        }
        text += "retransmit x" + std::to_string(retransmits);
      }
      text += "\n";
    }

    auto edge = children.find(span.span_id);
    if (edge == children.end()) {
      return;
    }
    std::vector<size_t> order = edge->second;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return spans[a].start() < spans[b].start(); });
    for (size_t child : order) {
      render(child, depth + 1);
    }
  };
  render(root_index, 0);
  size_t orphans = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!rendered[i]) {
      ++orphans;
    }
  }
  if (orphans > 0) {
    text += "  (+" + std::to_string(orphans) +
            " span(s) without a reachable parent — ring overwrote it, or its node "
            "was not collected)\n";
  }

  // --- per-hop attribution -------------------------------------------------
  // Union of named-stage intervals, aligned and clipped to the root window.
  // kWire deliberately overlaps the remote span's stages (it measures
  // network + remote from the client's side); the union counts overlapping
  // time once, so double-coverage never inflates the percentage.
  struct Interval {
    int64_t start;
    int64_t end;
  };
  std::vector<Interval> intervals;
  std::unordered_map<const char*, uint64_t> stage_ns;
  for (const AlignedSpan& entry : spans) {
    if (!entry.offset_known) {
      continue;
    }
    for (const SpanEvent& event : entry.span->events) {
      if (event.stage == SpanStage::kRetransmit || event.dur_ns == 0) {
        continue;
      }
      int64_t start = static_cast<int64_t>(event.at_ns) + entry.offset_ns;
      int64_t end = start + static_cast<int64_t>(event.dur_ns);
      start = std::max(start, root_start);
      end = std::min(end, root_end);
      if (end <= start) {
        continue;
      }
      intervals.push_back(Interval{start, end});
      stage_ns[SpanStageName(event.stage)] += static_cast<uint64_t>(end - start);
    }
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  uint64_t covered = 0;
  int64_t cursor = root_start;
  for (const Interval& interval : intervals) {
    const int64_t from = std::max(cursor, interval.start);
    if (interval.end > from) {
      covered += static_cast<uint64_t>(interval.end - from);
      cursor = interval.end;
    }
  }
  timeline.attributed_pct = 100.0 * static_cast<double>(covered) / static_cast<double>(root_duration);

  timeline.stage_totals_ns.assign(stage_ns.begin(), stage_ns.end());
  std::sort(timeline.stage_totals_ns.begin(), timeline.stage_totals_ns.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  text += "per-hop latency breakdown (of " + FormatMs(root_duration) + " client-observed):\n";
  for (const auto& [stage, ns] : timeline.stage_totals_ns) {
    std::snprintf(line, sizeof(line), "  %-14s %12s  %5.1f%%\n", stage.c_str(),
                  FormatMs(ns).c_str(),
                  100.0 * static_cast<double>(ns) / static_cast<double>(root_duration));
    text += line;
  }
  std::snprintf(line, sizeof(line),
                "attributed %.1f%% of client-observed latency to named stages\n",
                timeline.attributed_pct);
  text += line;
  return timeline;
}

}  // namespace swift
