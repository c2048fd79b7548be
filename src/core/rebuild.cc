#include "src/core/rebuild.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/distribution_agent.h"
#include "src/core/row_decode.h"
#include "src/core/stripe_layout.h"
#include "src/proto/message.h"
#include "src/util/buffer.h"

namespace swift {

namespace {

// Rows decoded per batch: enough to keep the UDP transport's default window
// of eight ops per column busy.
constexpr uint64_t kRowWindow = 8;

// Same-bytes re-sends of a failed replacement write, as for SwiftFile's row
// writes: a spare that keeps failing writes while staying reachable is
// surfaced to the caller.
constexpr int kMaxResends = 3;

// One unit written to a replacement, and how its last send ended.
struct ReplacementWrite {
  uint64_t row = 0;
  uint32_t column = 0;
  std::span<const uint8_t> bytes;
  Status status;
};

void SubmitWrite(OpBatch& batch, uint64_t unit, std::span<const uint32_t> handles,
                 ReplacementWrite& write) {
  batch.Submit(write.column, [&write, handle = handles[write.column], offset = write.row * unit](
                                 AgentTransport* transport, DistributionAgent::Completion done) {
    transport->StartWrite(handle, offset, write.bytes,
                          [&write, done = std::move(done)](Status status) {
                            write.status = status;
                            done(std::move(status));
                          });
  });
}

// Re-sends, one batch at a time, the writes whose last send failed on a
// spare that is still reachable. A spare that answers kUnavailable, or a
// write still failing once the re-sends run out, fails the rebuild with an
// error naming the write's row and column.
Status ResendFailedWrites(DistributionAgent& distribution, uint64_t unit,
                          std::span<const uint32_t> handles,
                          std::span<ReplacementWrite> writes) {
  for (int resend = 0;; ++resend) {
    std::vector<ReplacementWrite*> failed;
    for (ReplacementWrite& write : writes) {
      if (!write.status.ok()) {
        failed.push_back(&write);
      }
    }
    if (failed.empty()) {
      return OkStatus();
    }
    auto gone = std::find_if(failed.begin(), failed.end(), [](const ReplacementWrite* write) {
      return write->status.code() == StatusCode::kUnavailable;
    });
    if (gone != failed.end() || resend == kMaxResends) {
      const ReplacementWrite& write = gone != failed.end() ? **gone : *failed.front();
      return Status(write.status.code(),
                    "replacement write of row " + std::to_string(write.row) + " on column " +
                        std::to_string(write.column) + " failed after " +
                        std::to_string(resend) + " re-sends: " + write.status.message());
    }
    OpBatch batch(&distribution);
    for (ReplacementWrite* write : failed) {
      SubmitWrite(batch, unit, handles, *write);
    }
    batch.Wait();
  }
}

// Decodes every row of the lost columns from the survivors and writes it to
// the replacements, then trims each replacement to its layout size. Windows
// of rows move in one batch each: window w's survivor reads go out together
// with window w - 1's replacement writes, so the decode and the writes
// overlap. The handles of every column must be open.
Status RebuildRows(const ObjectMetadata& metadata, const std::vector<AgentTransport*>& transports,
                   std::span<const uint32_t> handles, std::span<const uint32_t> lost_columns,
                   RebuildReport* report) {
  const StripeLayout layout(metadata.stripe);
  const uint64_t unit = metadata.stripe.stripe_unit;
  const size_t lost = lost_columns.size();
  std::vector<uint64_t> target_bytes;
  uint64_t rows = 0;
  for (uint32_t column : lost_columns) {
    target_bytes.push_back(layout.AgentFileSize(column, metadata.size));
    rows = std::max(rows, (target_bytes.back() + unit - 1) / unit);
  }
  if (rows > 0) {
    DistributionAgent distribution(transports);
    RowDecoder decoder(layout, distribution, handles);
    // Two windows of one unit per lost column per row: the one being decoded
    // and the one being written. The last unit of a replacement's file may
    // be short (a partially filled trailing data unit); writing the
    // zero-extended reconstruction and truncating at the end restores the
    // exact size.
    Buffer rebuilt = Buffer::Allocate(2 * kRowWindow * lost * unit);
    auto slot = [&](uint64_t row, size_t i) {
      return rebuilt.data() + ((row % (2 * kRowWindow)) * lost + i) * unit;
    };
    for (uint64_t first = 0; first < rows + kRowWindow; first += kRowWindow) {
      const uint64_t last = std::min(rows, first + kRowWindow);
      std::vector<UnitRange> targets;
      for (uint64_t row = first; row < last; ++row) {
        for (size_t i = 0; i < lost; ++i) {
          targets.push_back({row, lost_columns[i], 0, unit, slot(row, i)});
        }
      }
      // The previous window's replacement writes.
      std::vector<ReplacementWrite> writes;
      for (uint64_t row = first > 0 ? first - kRowWindow : 0; row < first; ++row) {
        const uint64_t row_offset = row * unit;
        uint64_t row_bytes = 0;
        for (size_t i = 0; i < lost; ++i) {
          if (row_offset >= target_bytes[i]) {
            continue;  // this replacement's file ends before the row
          }
          const std::span<const uint8_t> bytes(slot(row, i),
                                               std::min(unit, target_bytes[i] - row_offset));
          writes.push_back({row, lost_columns[i], bytes, OkStatus()});
          row_bytes += bytes.size();
        }
        if (row_bytes > 0) {
          ++report->rows_rebuilt;
          report->bytes_written += row_bytes;
        }
      }
      RowDecoder::Job decode(decoder, targets, {});
      {
        OpBatch batch(&distribution);
        SWIFT_RETURN_IF_ERROR(decode.Start(batch));
        for (ReplacementWrite& write : writes) {
          SubmitWrite(batch, unit, handles, write);
        }
        // The replacements are never read: their columns' statuses are the
        // writes', which are checked (and re-sent) one by one below.
        const std::vector<Status> statuses = batch.Wait();
        for (uint32_t c = 0; c < statuses.size(); ++c) {
          if (std::find(lost_columns.begin(), lost_columns.end(), c) == lost_columns.end()) {
            SWIFT_RETURN_IF_ERROR(statuses[c]);
          }
        }
      }
      SWIFT_RETURN_IF_ERROR(ResendFailedWrites(distribution, unit, handles, writes));
      SWIFT_RETURN_IF_ERROR(decode.Finish({}));
    }
  }
  for (size_t i = 0; i < lost; ++i) {
    SWIFT_RETURN_IF_ERROR(
        transports[lost_columns[i]]->Truncate(handles[lost_columns[i]], target_bytes[i]));
  }
  return OkStatus();
}

}  // namespace

Result<RebuildReport> RebuildColumns(const ObjectMetadata& metadata,
                                     const std::vector<AgentTransport*>& transports,
                                     std::span<const uint32_t> lost_columns) {
  if (metadata.stripe.parity == ParityMode::kNone) {
    return InvalidArgumentError("object has no redundancy to rebuild from");
  }
  if (transports.size() != metadata.stripe.num_agents) {
    return InvalidArgumentError("transport count does not match the object's stripe width");
  }
  if (lost_columns.empty()) {
    return InvalidArgumentError("no lost columns to rebuild");
  }
  if (lost_columns.size() > metadata.stripe.ParityUnitsPerRow()) {
    return InvalidArgumentError("more lost columns than the codec's parity units cover");
  }
  for (size_t i = 0; i < lost_columns.size(); ++i) {
    if (lost_columns[i] >= metadata.stripe.num_agents) {
      return InvalidArgumentError("lost column out of range");
    }
    for (size_t j = i + 1; j < lost_columns.size(); ++j) {
      if (lost_columns[i] == lost_columns[j]) {
        return InvalidArgumentError("duplicate lost column");
      }
    }
  }

  // Open every file: survivors plainly, the replacements created empty.
  // Whatever happens next, every handle opened here is closed again — an
  // agent refuses to remove an object that still has open handles.
  std::vector<uint32_t> handles;
  Status status = OkStatus();
  for (uint32_t c = 0; c < transports.size() && status.ok(); ++c) {
    const bool lost =
        std::find(lost_columns.begin(), lost_columns.end(), c) != lost_columns.end();
    auto opened = transports[c]->Open(metadata.name,
                                      lost ? (kOpenCreate | kOpenTruncate) : kOpenCreate);
    if (opened.ok()) {
      handles.push_back(opened->handle);
    } else {
      status = opened.status();
    }
  }
  RebuildReport report;
  if (status.ok()) {
    status = RebuildRows(metadata, transports, handles, lost_columns, &report);
  }
  for (uint32_t c = 0; c < handles.size(); ++c) {
    (void)transports[c]->Close(handles[c]);
  }
  if (!status.ok()) {
    return status;
  }
  return report;
}

Result<RebuildReport> RebuildColumn(const ObjectMetadata& metadata,
                                    const std::vector<AgentTransport*>& transports,
                                    uint32_t lost_column) {
  const uint32_t lost[] = {lost_column};
  return RebuildColumns(metadata, transports, lost);
}

Result<RebuildReport> MigrateColumn(const ObjectMetadata& metadata,
                                    const TransferPlan& revised_plan,
                                    const std::vector<AgentTransport*>& transports,
                                    uint32_t remapped_column) {
  if (revised_plan.stripe.num_agents != metadata.stripe.num_agents) {
    return InvalidArgumentError("revised plan changed the stripe width");
  }
  if (revised_plan.stripe.stripe_unit != metadata.stripe.stripe_unit) {
    return InvalidArgumentError("revised plan changed the striping unit");
  }
  if (revised_plan.stripe.parity != metadata.stripe.parity) {
    return InvalidArgumentError("revised plan changed the parity mode");
  }
  if (revised_plan.stripe.parity_units != metadata.stripe.parity_units) {
    return InvalidArgumentError("revised plan changed the parity unit count");
  }
  if (revised_plan.stripe.codec != metadata.stripe.codec) {
    return InvalidArgumentError("revised plan changed the erasure codec");
  }
  if (remapped_column >= revised_plan.agent_ids.size()) {
    return InvalidArgumentError("remapped column out of range for the revised plan");
  }
  return RebuildColumn(metadata, transports, remapped_column);
}

}  // namespace swift
