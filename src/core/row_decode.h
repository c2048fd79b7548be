// The row decoder: rebuilds lost units of one stripe row from its survivors.
//
// Swift's "computed copy" redundancy (§2), generalized to k+m erasure
// coding. Degraded and hedged reads, read-repair and the read-modify-write
// gather (SwiftFile), rebuild and scrub repair all decode through this one
// engine (DESIGN.md §11, §17):
//   * the targets and the caller's `erased` columns are never read; plans
//     are memoized per erased-position set;
//   * the k survivors are read once, concurrently, in one OpBatch, and each
//     completion is folded into every target as it lands;
//   * a survivor answering kDataCorrupt or kUnavailable is promoted to an
//     erasure and the row re-planned while the erasures stay within m,
//     beyond which the row is kDataLoss;
//   * it only produces bytes: each caller owns its write-back.
// A decoder allocates nothing and starts no thread until it decodes a row.
// DecodeRow must not run concurrently on one decoder (the plan cache is
// unguarded); survivor completions may land on any thread.

#ifndef SWIFT_SRC_CORE_ROW_DECODE_H_
#define SWIFT_SRC_CORE_ROW_DECODE_H_

#include <cstdint>
#include <list>
#include <span>
#include <vector>

#include "src/core/distribution_agent.h"
#include "src/core/erasure.h"
#include "src/core/stripe_layout.h"
#include "src/util/status.h"

namespace swift {

// What one DecodeRow call saw, filled on success and on failure.
struct RowDecodeReport {
  // Size of the erased set of the last plan tried: targets, the caller's
  // erasures and promoted survivors.
  uint32_t erasures = 0;
  // Survivor columns promoted after answering kUnavailable.
  std::vector<uint32_t> unavailable;
};

class RowDecoder {
 public:
  // `distribution` runs the survivor reads; `handles` holds the open agent
  // handle of every column. All three must outlive the decoder.
  RowDecoder(const StripeLayout& layout, DistributionAgent& distribution,
             std::span<const uint32_t> handles);

  // Rebuilds the units of `row` held by columns `targets` into `outs` (one
  // full stripe unit each, same order). `erased` lists further columns that
  // must not be read; it may overlap `targets`. The outputs are zeroed before
  // folding, so on failure they hold no meaningful bytes.
  Status DecodeRow(uint64_t row, std::span<const uint32_t> erased,
                   std::span<const uint32_t> targets, std::span<uint8_t* const> outs,
                   RowDecodeReport& report);

 private:
  // The memoized plan for an ascending erased-position set.
  Result<const ReconstructionPlan*> PlanFor(std::span<const uint32_t> positions);

  const StripeLayout& layout_;
  DistributionAgent& distribution_;
  std::span<const uint32_t> handles_;
  // Keyed by plan.targets. A list: plans stay put while the cache grows.
  std::list<ReconstructionPlan> plans_;
};

}  // namespace swift

#endif  // SWIFT_SRC_CORE_ROW_DECODE_H_
