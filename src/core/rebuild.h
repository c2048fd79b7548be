// Rebuilding a failed storage agent onto a replacement.
//
// The 1991 paper stops at surviving a failure (reads reconstruct through
// parity); restoring full redundancy afterwards is the natural next step —
// "by selectively hardening each of the system components, Swift can
// achieve arbitrarily high reliability" (§6). `RebuildColumns` regenerates
// every unit the failed agents held — data units and the parity units the
// rotation placed there — by decoding the surviving columns through the
// object's erasure codec, and writes them to replacement agents. Up to m
// columns (the codec's parity count) rebuild in one pass; afterwards the
// object tolerates m fresh failures again.
//
// The rebuild streams a window of rows at a time through the row decoder
// (src/core/row_decode.h): every survivor of the window's rows is read once,
// concurrently, in one batch, every lost unit of those rows is decoded from
// it, and the window's replacement writes ride the next window's survivor
// batch. A survivor that turns out corrupt or unreachable mid-rebuild is
// decoded around while its row's erasures stay within m. Peak memory is two
// windows of one stripe unit per lost column plus the survivor reads in
// flight, regardless of object size.

#ifndef SWIFT_SRC_CORE_REBUILD_H_
#define SWIFT_SRC_CORE_REBUILD_H_

#include <span>
#include <vector>

#include "src/core/agent_transport.h"
#include "src/core/object_directory.h"
#include "src/core/transfer_plan.h"
#include "src/util/status.h"

namespace swift {

struct RebuildReport {
  uint64_t rows_rebuilt = 0;
  uint64_t bytes_written = 0;
};

// Reconstructs columns `lost_columns` of `metadata`'s object in one
// streaming pass. `transports` is in stripe-column order; each
// `transports[lost]` must be a *replacement* agent (its file is
// created/truncated), the others must be the survivors. Requires parity, at
// most m lost columns (the codec's parity count), and no duplicates. Fails
// with the open error if any column cannot be opened (kUnavailable for a
// down agent), and with kDataLoss if a row has more than m unreadable units.
// Every handle it opened is closed again on every exit.
Result<RebuildReport> RebuildColumns(const ObjectMetadata& metadata,
                                     const std::vector<AgentTransport*>& transports,
                                     std::span<const uint32_t> lost_columns);

// Single-column convenience wrapper around RebuildColumns.
Result<RebuildReport> RebuildColumn(const ObjectMetadata& metadata,
                                    const std::vector<AgentTransport*>& transports,
                                    uint32_t lost_column);

// Failure-driven migration: after the mediator replans a session (remapping a
// dead agent's stripe column onto a replacement), rebuild that column onto the
// replacement named by the revised plan. Validates that the revised plan kept
// the object's geometry — same stripe width, unit, parity mode, parity count,
// and codec — before delegating to RebuildColumns. `transports` is in the
// revised plan's column order, so `transports[remapped_column]` is the
// replacement agent.
Result<RebuildReport> MigrateColumn(const ObjectMetadata& metadata,
                                    const TransferPlan& revised_plan,
                                    const std::vector<AgentTransport*>& transports,
                                    uint32_t remapped_column);

}  // namespace swift

#endif  // SWIFT_SRC_CORE_REBUILD_H_
