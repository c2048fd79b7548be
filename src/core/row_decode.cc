#include "src/core/row_decode.h"

#include <algorithm>
#include <mutex>
#include <string>

#include "src/util/logging.h"

namespace swift {

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

Status RowDecoder::DecodeRow(uint64_t row, std::span<const uint32_t> erased,
                             std::span<const uint32_t> targets, std::span<uint8_t* const> outs,
                             RowDecodeReport& report) {
  const StripeConfig& config = layout_.config();
  if (config.parity == ParityMode::kNone) {
    return DataLossError("object has no redundancy to reconstruct from");
  }
  SWIFT_CHECK(targets.size() == outs.size());
  report.unavailable.clear();
  const uint64_t unit = config.stripe_unit;
  const uint64_t row_offset = row * unit;
  const uint32_t budget = config.ParityUnitsPerRow();

  // Promoted survivors are never already erased. Each retry adds at least
  // one, so the loop is bounded by the budget check.
  std::vector<uint32_t> erased_agents(targets.begin(), targets.end());
  erased_agents.insert(erased_agents.end(), erased.begin(), erased.end());
  std::ranges::sort(erased_agents);
  erased_agents.erase(std::ranges::unique(erased_agents).begin(), erased_agents.end());
  std::vector<uint32_t> positions;
  std::vector<size_t> target_index(targets.size());
  for (;;) {
    report.erasures = static_cast<uint32_t>(erased_agents.size());
    if (erased_agents.size() > budget) {
      return DataLossError(std::to_string(erased_agents.size()) + " unreadable units in row " +
                           std::to_string(row) + " exceed the " + std::to_string(budget) +
                           "-unit parity budget");
    }
    positions.clear();
    for (uint32_t agent : erased_agents) {
      positions.push_back(layout_.UnitPositionOf(row, agent));
    }
    std::ranges::sort(positions);
    SWIFT_ASSIGN_OR_RETURN(const ReconstructionPlan* plan, PlanFor(positions));
    for (size_t t = 0; t < targets.size(); ++t) {
      const uint32_t position = layout_.UnitPositionOf(row, targets[t]);
      const auto it = std::find(plan->targets.begin(), plan->targets.end(), position);
      target_index[t] = static_cast<size_t>(it - plan->targets.begin());
      std::fill(outs[t], outs[t] + unit, 0);
    }

    // GF addition is XOR, so folds commute and land in arrival order; the
    // mutex makes each fold (and each promotion) atomic. done() runs after
    // the lock drops: the last one releases the waiter, whose frame owns it.
    std::mutex mutex;
    std::vector<uint32_t> promoted;
    {
      OpBatch batch(&distribution_);
      for (size_t s = 0; s < plan->survivors.size(); ++s) {
        const uint32_t agent = layout_.AgentAtPosition(row, plan->survivors[s]);
        batch.Submit(agent, [&, agent, s](AgentTransport* transport,
                                          DistributionAgent::Completion done) {
          transport->StartRead(
              handles_[agent], row_offset, unit,
              [&, agent, s, done = std::move(done)](Result<BufferSlice> data) {
                Status status = OkStatus();
                {
                  std::lock_guard<std::mutex> lock(mutex);
                  if (data.ok()) {
                    for (size_t t = 0; t < targets.size(); ++t) {
                      GfMulFold(std::span<uint8_t>(outs[t], data->size()), *data,
                                plan->Coefficient(target_index[t], s));
                    }
                  } else if (data.code() == StatusCode::kDataCorrupt ||
                             data.code() == StatusCode::kUnavailable) {
                    promoted.push_back(agent);
                    if (data.code() == StatusCode::kUnavailable) {
                      report.unavailable.push_back(agent);
                    }
                  } else {
                    status = data.status();
                  }
                }
                done(std::move(status));
              });
        });
      }
      for (const Status& status : batch.Wait()) {
        SWIFT_RETURN_IF_ERROR(status);
      }
    }
    if (promoted.empty()) {
      return OkStatus();
    }
    erased_agents.insert(erased_agents.end(), promoted.begin(), promoted.end());
  }
}

}  // namespace swift
