#include "src/core/row_decode.h"

#include <algorithm>
#include <string>

#include "src/util/logging.h"

namespace swift {

namespace {

void SortUnique(std::vector<uint32_t>& columns) {
  std::ranges::sort(columns);
  columns.erase(std::ranges::unique(columns).begin(), columns.end());
}

}  // namespace

RowDecoder::RowDecoder(const StripeLayout& layout, DistributionAgent& distribution,
                       std::span<const uint32_t> handles)
    : layout_(layout), distribution_(distribution), handles_(handles) {}

Result<const ReconstructionPlan*> RowDecoder::PlanFor(std::span<const uint32_t> positions) {
  for (const ReconstructionPlan& plan : plans_) {
    if (std::ranges::equal(plan.targets, positions)) {
      return &plan;
    }
  }
  SWIFT_ASSIGN_OR_RETURN(ReconstructionPlan plan,
                         CodecFor(layout_.config()).PlanReconstruction(positions));
  plans_.push_back(std::move(plan));
  return &plans_.back();
}

Status RowDecoder::Decode(std::span<const UnitRange> targets, std::span<const uint32_t> erased,
                          RowDecodeReport& report) {
  Job job(*this, targets, erased);
  Status status = OkStatus();
  {
    OpBatch batch(&distribution_);
    status = job.Start(batch);
    for (const Status& op : batch.Wait()) {
      if (status.ok()) {
        status = op;
      }
    }
  }
  if (status.ok()) {
    status = job.Finish({});
  }
  report = job.report();
  return status;
}

RowDecoder::Job::Job(RowDecoder& decoder, std::span<const UnitRange> targets,
                     std::span<const uint32_t> erased, std::span<const UnitRange> held)
    : decoder_(decoder), targets_(targets.begin(), targets.end()), held_(held.begin(), held.end()) {
  std::ranges::stable_sort(targets_, {}, &UnitRange::row);
  for (const UnitRange& target : targets_) {
    if (rows_.empty() || rows_.back().row != target.row) {
      Row& row = rows_.emplace_back();
      row.row = target.row;
      row.erased.assign(erased.begin(), erased.end());
      row.lo = target.offset;
      row.hi = target.offset + target.length;
    }
    Row& row = rows_.back();
    row.targets.push_back(&target);
    row.erased.push_back(target.column);
    row.lo = std::min(row.lo, target.offset);
    row.hi = std::max(row.hi, target.offset + target.length);
  }
  for (Row& row : rows_) {
    SortUnique(row.erased);
  }
  for (const UnitRange& unit : held_) {
    if (Row* row = Find(unit.row); row != nullptr) {
      row->held.push_back(&unit);
    }
  }
}

RowDecoder::Job::Row* RowDecoder::Job::Find(uint64_t row) {
  const auto it = std::ranges::lower_bound(rows_, row, {}, &Row::row);
  return it != rows_.end() && it->row == row ? &*it : nullptr;
}

Status RowDecoder::Job::Plan(Row& row) {
  const StripeLayout& layout = decoder_.layout_;
  const uint32_t budget = layout.config().ParityUnitsPerRow();
  if (row.erased.size() > budget) {
    return DataLossError(std::to_string(row.erased.size()) + " unreadable units in row " +
                         std::to_string(row.row) + " exceed the " + std::to_string(budget) +
                         "-unit parity budget");
  }
  std::vector<uint32_t> positions;
  for (uint32_t agent : row.erased) {
    positions.push_back(layout.UnitPositionOf(row.row, agent));
  }
  std::ranges::sort(positions);
  SWIFT_ASSIGN_OR_RETURN(row.plan, decoder_.PlanFor(positions));
  row.target_index.clear();
  for (const UnitRange* target : row.targets) {
    const uint32_t position = layout.UnitPositionOf(row.row, target->column);
    row.target_index.push_back(
        static_cast<size_t>(std::ranges::find(row.plan->targets, position) -
                            row.plan->targets.begin()));
    std::fill_n(target->data, target->length, 0);
  }
  row.sources.assign(row.plan->survivors.size(), nullptr);
  for (size_t s = 0; s < row.plan->survivors.size(); ++s) {
    const uint32_t agent = layout.AgentAtPosition(row.row, row.plan->survivors[s]);
    for (const UnitRange* held : row.held) {
      if (held->column == agent && held->offset <= row.lo &&
          held->offset + held->length >= row.hi) {
        row.sources[s] = held->data + (row.lo - held->offset);
        break;
      }
    }
  }
  return OkStatus();
}

void RowDecoder::Job::Fold(const Row& row, size_t s, const uint8_t* bytes) {
  for (size_t t = 0; t < row.targets.size(); ++t) {
    const UnitRange& target = *row.targets[t];
    GfMulFold(std::span<uint8_t>(target.data, target.length),
              std::span<const uint8_t>(bytes + (target.offset - row.lo), target.length),
              row.plan->Coefficient(row.target_index[t], s));
  }
}

void RowDecoder::Job::Submit(OpBatch& batch, Row& row) {
  const uint64_t unit = decoder_.layout_.config().stripe_unit;
  for (size_t s = 0; s < row.sources.size(); ++s) {
    if (row.sources[s] != nullptr) {
      continue;
    }
    const uint32_t agent = decoder_.layout_.AgentAtPosition(row.row, row.plan->survivors[s]);
    const uint32_t handle = decoder_.handles_[agent];
    batch.Submit(agent, [&row, agent, handle, s, offset = row.row * unit + row.lo,
                         length = row.hi - row.lo](AgentTransport* transport,
                                                   DistributionAgent::Completion done) {
      transport->StartRead(
          handle, offset, length,
          [&row, agent, s, done = std::move(done)](Result<BufferSlice> data) {
            // GF addition is XOR, so folds commute and land in arrival order;
            // the row's lock makes each fold (and each promotion) atomic.
            // done() runs after the lock drops: the last one releases the
            // waiter, whose frame owns the row.
            Status status = OkStatus();
            {
              std::lock_guard<std::mutex> lock(row.mutex);
              if (data.ok()) {
                Fold(row, s, data->data());
              } else if (data.code() == StatusCode::kDataCorrupt ||
                         data.code() == StatusCode::kUnavailable) {
                row.promoted.push_back(agent);
                if (data.code() == StatusCode::kUnavailable) {
                  row.unavailable.push_back(agent);
                }
              } else {
                status = data.status();
              }
            }
            done(std::move(status));
          });
    });
  }
}

Status RowDecoder::Job::Start(OpBatch& batch) {
  if (decoder_.layout_.config().parity == ParityMode::kNone) {
    return DataLossError("object has no redundancy to reconstruct from");
  }
  for (Row& row : rows_) {
    SWIFT_RETURN_IF_ERROR(Plan(row));
  }
  for (Row& row : rows_) {
    Submit(batch, row);
  }
  return OkStatus();
}

Status RowDecoder::Job::Finish(std::span<const UnitRef> unusable) {
  for (const UnitRef& unit : unusable) {
    Row* row = Find(unit.row);
    if (row == nullptr) {
      continue;
    }
    for (size_t s = 0; s < row->sources.size(); ++s) {
      if (row->sources[s] != nullptr &&
          decoder_.layout_.AgentAtPosition(row->row, row->plan->survivors[s]) == unit.column) {
        row->promoted.push_back(unit.column);
      }
    }
  }
  // Each round promotes at least one survivor per re-planned row, so the
  // loop is bounded by the budget check in Plan.
  for (;;) {
    std::vector<Row*> replan;
    for (Row& row : rows_) {
      if (row.done) {
        continue;
      }
      if (!row.promoted.empty()) {
        replan.push_back(&row);
        continue;
      }
      for (size_t s = 0; s < row.sources.size(); ++s) {
        if (row.sources[s] != nullptr) {
          Fold(row, s, row.sources[s]);
        }
      }
      row.done = true;
    }
    if (replan.empty()) {
      return OkStatus();
    }
    for (Row* row : replan) {
      row->erased.insert(row->erased.end(), row->promoted.begin(), row->promoted.end());
      row->promoted.clear();
      SortUnique(row->erased);
      SWIFT_RETURN_IF_ERROR(Plan(*row));
    }
    OpBatch batch(&decoder_.distribution_);
    for (Row* row : replan) {
      Submit(batch, *row);
    }
    for (const Status& status : batch.Wait()) {
      SWIFT_RETURN_IF_ERROR(status);
    }
  }
}

RowDecodeReport RowDecoder::Job::report() const {
  RowDecodeReport report;
  for (const Row& row : rows_) {
    const uint32_t erasures = static_cast<uint32_t>(row.erased.size());
    report.erasures = std::max(report.erasures, erasures);
    if (erasures >= 2) {
      ++report.multi_erasure_rows;
    }
    report.unavailable.insert(report.unavailable.end(), row.unavailable.begin(),
                              row.unavailable.end());
  }
  return report;
}

}  // namespace swift
