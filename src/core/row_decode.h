// The row decoder: rebuilds lost units of stripe rows from their survivors.
//
// Swift's "computed copy" redundancy (§2), generalized to k+m erasure
// coding. Degraded and hedged reads, read-repair and the read-modify-write
// gather (SwiftFile), rebuild and scrub repair all decode through this one
// engine (DESIGN.md §11, §17):
//   * one decode covers any number of rows: every row's survivor reads go
//     into one OpBatch, and each completion is folded into that row's
//     targets as it lands (a lock per row, so rows fold in parallel);
//   * the targets and the caller's `erased` columns are never read; plans
//     are memoized per erased-position set;
//   * a caller may name survivor units it already holds, or will hold once
//     its own batch drains (a degraded read's live data units): those are
//     folded from the caller's memory, and only the missing survivors are
//     read, into the caller's batch;
//   * survivors are read only over the hull of the row's target ranges, so a
//     fragment costs fragment-sized survivor reads (GF folds are bytewise);
//   * a survivor answering kDataCorrupt or kUnavailable, or a held one the
//     caller reports unusable, is promoted to an erasure and its row
//     re-planned while the erasures stay within m, beyond which the decode is
//     kDataLoss;
//   * it only produces bytes: each caller owns its write-back.
// A decoder allocates nothing and starts no thread until it decodes. Jobs
// over one decoder must not run concurrently (the plan cache is unguarded);
// survivor completions may land on any thread.

#ifndef SWIFT_SRC_CORE_ROW_DECODE_H_
#define SWIFT_SRC_CORE_ROW_DECODE_H_

#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <span>
#include <vector>

#include "src/core/distribution_agent.h"
#include "src/core/erasure.h"
#include "src/core/stripe_layout.h"
#include "src/util/status.h"

namespace swift {

// Bytes [offset, offset + length) of the unit `column` holds in `row`, at
// `data`: as a decode target, where they are rebuilt; as a held survivor,
// where the caller has them.
struct UnitRange {
  uint64_t row = 0;
  uint32_t column = 0;
  uint64_t offset = 0;  // within the unit
  uint64_t length = 0;
  uint8_t* data = nullptr;
};

// One (row, column) unit.
struct UnitRef {
  uint64_t row = 0;
  uint32_t column = 0;
};

// What one decode saw, filled on success and on failure.
struct RowDecodeReport {
  // Size of the largest erased set of any row's last plan: targets, the
  // caller's erasures and promoted survivors.
  uint32_t erasures = 0;
  // Rows whose last plan decoded around two or more erasures.
  uint64_t multi_erasure_rows = 0;
  // Survivor columns promoted after answering kUnavailable.
  std::vector<uint32_t> unavailable;
};

class RowDecoder {
 public:
  // `distribution` runs the survivor reads; `handles` holds the open agent
  // handle of every column. All three must outlive the decoder.
  RowDecoder(const StripeLayout& layout, DistributionAgent& distribution,
             std::span<const uint32_t> handles);

  // Rebuilds `targets` (any rows, any order) in one batch of its own: a Job
  // started, waited for and finished.
  Status Decode(std::span<const UnitRange> targets, std::span<const uint32_t> erased,
                RowDecodeReport& report);

  // One multi-row decode riding a caller's batch. Must outlive that batch.
  class Job {
   public:
    // `targets` are the ranges to rebuild; `erased` lists further columns
    // that must not be read in any row (it may overlap the targets). `held`
    // names survivor ranges in the caller's memory, valid once the batch
    // drains; one is used for a row only if it covers the row's whole
    // survivor range. Every target and held range must stay valid until
    // Finish returns.
    Job(RowDecoder& decoder, std::span<const UnitRange> targets,
        std::span<const uint32_t> erased, std::span<const UnitRange> held = {});
    Job(const Job&) = delete;
    Job& operator=(const Job&) = delete;

    // Plans every row, zeroes the targets and submits the survivors nobody
    // holds into `batch`. A row past m fails before anything is submitted.
    Status Start(OpBatch& batch);
    // Once `batch` has drained with every status OK: folds the held
    // survivors, except `unusable` ones (held units the caller's batch found
    // corrupt), and re-plans each row that lost a survivor, in further
    // batches of its own, until every row decodes or one passes m. On
    // failure the targets hold no meaningful bytes.
    Status Finish(std::span<const UnitRef> unusable);
    // What the decode saw so far; complete once Finish returns.
    RowDecodeReport report() const;

   private:
    struct Row {
      uint64_t row = 0;
      std::vector<uint32_t> erased;  // agent columns, ascending, unique
      std::vector<const UnitRange*> targets;
      std::vector<size_t> target_index;  // plan slot of each target
      std::vector<const UnitRange*> held;
      uint64_t lo = 0;  // survivor range within the unit: the targets' hull
      uint64_t hi = 0;
      const ReconstructionPlan* plan = nullptr;
      // Per plan survivor: the caller's bytes at `lo`, or null (read it).
      std::vector<const uint8_t*> sources;
      bool done = false;
      std::mutex mutex;  // guards the folds and the two lists below
      std::vector<uint32_t> promoted;
      std::vector<uint32_t> unavailable;
    };

    Status Plan(Row& row);
    void Submit(OpBatch& batch, Row& row);
    // Folds plan survivor `s`, whose bytes from the row's `lo` are at
    // `bytes`, into every target of the row.
    static void Fold(const Row& row, size_t s, const uint8_t* bytes);
    Row* Find(uint64_t row);

    RowDecoder& decoder_;
    std::vector<UnitRange> targets_;  // sorted by row
    std::vector<UnitRange> held_;
    std::deque<Row> rows_;            // ascending row; a deque keeps the mutexes put
  };

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
