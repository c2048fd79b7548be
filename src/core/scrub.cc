#include "src/core/scrub.h"

#include <optional>
#include <span>

#include "src/core/distribution_agent.h"
#include "src/core/row_decode.h"
#include "src/core/stripe_layout.h"
#include "src/proto/message.h"
#include "src/util/logging.h"
#include "src/util/metrics.h"

namespace swift {

namespace {

struct ScrubMetrics {
  Counter* objects;
  Counter* blocks_checked;
  Counter* ranges_found;
  Counter* ranges_repaired;
  Counter* ranges_unrepairable;
  Counter* multi_failure_repairs;
};

const ScrubMetrics& Metrics() {
  static const ScrubMetrics metrics = [] {
    MetricRegistry& registry = MetricRegistry::Global();
    return ScrubMetrics{
        registry.GetCounter("swift_scrub_objects_total"),
        registry.GetCounter("swift_scrub_blocks_checked_total"),
        registry.GetCounter("swift_scrub_ranges_found_total"),
        registry.GetCounter("swift_scrub_ranges_repaired_total"),
        registry.GetCounter("swift_scrub_ranges_unrepairable_total"),
        registry.GetCounter("swift_erasure_multi_failure_repairs_total"),
    };
  }();
  return metrics;
}

// Rewrites the unit-aligned cover of `range` on `column` in one Write, every
// row of it decoded in one batch with the `unopened` columns erased; a
// Reed-Solomon group heals up to m bad units per row in one sweep. Sets
// `*multi_failure` when a row decoded around two or more erasures. The caller
// only tallies errors.
Status RepairRange(RowDecoder& decoder, AgentTransport* transport, uint32_t handle,
                   uint64_t unit, std::span<const uint32_t> unopened, uint32_t column,
                   const CorruptRange& range, bool* multi_failure) {
  const uint64_t cover_begin = (range.offset / unit) * unit;
  const uint64_t cover_end = ((range.offset + range.length + unit - 1) / unit) * unit;
  std::vector<uint8_t> rebuilt(cover_end - cover_begin);
  std::vector<UnitRange> targets;
  for (uint64_t row_offset = cover_begin; row_offset < cover_end; row_offset += unit) {
    targets.push_back(
        {row_offset / unit, column, 0, unit, rebuilt.data() + (row_offset - cover_begin)});
  }
  RowDecodeReport report;
  SWIFT_RETURN_IF_ERROR(decoder.Decode(targets, unopened, report));
  *multi_failure = report.erasures >= 2;
  return transport->Write(handle, cover_begin, rebuilt);
}

}  // namespace

Result<ScrubSummary> ScrubObject(const ObjectMetadata& metadata,
                                 const std::vector<AgentTransport*>& transports) {
  if (transports.size() != metadata.stripe.num_agents) {
    return InvalidArgumentError("transport count does not match the object's stripe width");
  }

  // Repairs read every *other* column of the corrupt row, so all handles are
  // opened up front. A column that cannot open is still scrubbed — SCRUB is
  // object-scoped, not handle-scoped — but ranges needing it stay broken.
  std::vector<uint32_t> handles(transports.size(), 0);
  std::vector<bool> opened(transports.size(), false);
  std::vector<uint32_t> unopened;
  for (uint32_t c = 0; c < transports.size(); ++c) {
    auto result = transports[c]->Open(metadata.name, 0);
    if (result.ok()) {
      handles[c] = result->handle;
      opened[c] = true;
    } else {
      unopened.push_back(c);
    }
  }
  // Repairs decode through one row decoder, started at the first repair.
  const StripeLayout layout(metadata.stripe);
  std::optional<DistributionAgent> distribution;
  std::optional<RowDecoder> decoder;

  ScrubSummary summary;
  for (uint32_t c = 0; c < transports.size(); ++c) {
    auto report = transports[c]->Scrub(metadata.name);
    if (!report.ok()) {
      if (report.code() == StatusCode::kUnimplemented) {
        ++summary.columns_skipped;
      } else {
        ++summary.columns_unavailable;
        SWIFT_LOG(WARNING) << "scrub of '" << metadata.name << "' column " << c
                           << " failed: " << report.status().ToString();
      }
      continue;
    }
    ++summary.columns_scrubbed;
    summary.blocks_checked += report->blocks_checked;
    summary.truncated = summary.truncated || report->truncated;
    Metrics().blocks_checked->Increment(report->blocks_checked);

    for (const CorruptRange& range : report->corrupt_ranges) {
      ++summary.ranges_found;
      Metrics().ranges_found->Increment();
      bool multi_failure = false;
      Status repaired = UnavailableError("column's file could not be opened for repair");
      if (opened[c]) {
        if (!decoder.has_value()) {
          distribution.emplace(transports);
          decoder.emplace(layout, *distribution, handles);
        }
        repaired = RepairRange(*decoder, transports[c], handles[c], metadata.stripe.stripe_unit,
                               unopened, c, range, &multi_failure);
      }
      if (repaired.ok()) {
        ++summary.ranges_repaired;
        Metrics().ranges_repaired->Increment();
        if (multi_failure) {
          ++summary.multi_failure_repairs;
          Metrics().multi_failure_repairs->Increment();
        }
      } else {
        ++summary.ranges_unrepairable;
        Metrics().ranges_unrepairable->Increment();
        SWIFT_LOG(WARNING) << "scrub could not repair '" << metadata.name << "' column " << c
                           << " [" << range.offset << ", +" << range.length
                           << "): " << repaired.ToString();
      }
    }
  }

  for (uint32_t c = 0; c < transports.size(); ++c) {
    if (opened[c]) {
      (void)transports[c]->Close(handles[c]);
    }
  }
  Metrics().objects->Increment();
  return summary;
}

}  // namespace swift
