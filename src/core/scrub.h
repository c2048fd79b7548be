// Proactive integrity scrubbing: sweep an object's at-rest checksums on
// every column and repair what the sweep finds from parity.
//
// The read path only heals corruption it happens to trip over; cold data
// rots silently until the day a *second* fault lands in the same row and the
// XOR budget is gone. `ScrubObject` closes that window: each agent verifies
// its stored file against the CRC sidecar (the SCRUB protocol op — cheap,
// no data crosses the wire, only corrupt ranges), and every corrupt range is
// decoded from the row's surviving columns by the row decoder
// (src/core/row_decode.h) that read-repair uses, and written back by the
// scrubber: read-repair driven from the outside in.
//
// Repair granularity: a corrupt range is rounded out to stripe-unit
// boundaries and rewritten in one Write per range. Agents report ranges at
// checksum-block granularity, and blocks and stripe units are both powers of
// two, so the rounded cover always lands on checksum-block boundaries (or
// runs past the stored end) — the agent's integrity layer reseals it without
// having to trust any old bytes.

#ifndef SWIFT_SRC_CORE_SCRUB_H_
#define SWIFT_SRC_CORE_SCRUB_H_

#include <vector>

#include "src/core/agent_transport.h"
#include "src/core/object_directory.h"
#include "src/util/status.h"

namespace swift {

struct ScrubSummary {
  uint64_t columns_scrubbed = 0;
  // Agent reachable but its store keeps no checksums (bare store): nothing
  // to verify against, counted so the caller knows coverage was partial.
  uint64_t columns_skipped = 0;
  uint64_t columns_unavailable = 0;
  uint64_t blocks_checked = 0;
  uint64_t ranges_found = 0;
  uint64_t ranges_repaired = 0;
  // No parity to rebuild from, more unreadable units in a row than the
  // codec's m parity units cover, or the repair write failed.
  uint64_t ranges_unrepairable = 0;
  // Repairs that had to decode around ≥ 2 unreadable units in one row
  // (possible only with a Reed-Solomon m ≥ 2 codec).
  uint64_t multi_failure_repairs = 0;
  // Some agent clipped its corrupt-range report to fit the reply datagram;
  // re-run the scrub after repairs to pick up the remainder.
  bool truncated = false;

  bool clean() const {
    return ranges_found == 0 && !truncated && columns_unavailable == 0;
  }
};

// Scrubs every column of `metadata`'s object and repairs corrupt ranges via
// parity reconstruction. `transports` must be in stripe-column order. Always
// sweeps all columns; per-column trouble is tallied in the summary rather
// than aborting the sweep, so one bad agent cannot hide another's rot.
Result<ScrubSummary> ScrubObject(const ObjectMetadata& metadata,
                                 const std::vector<AgentTransport*>& transports);

}  // namespace swift

#endif  // SWIFT_SRC_CORE_SCRUB_H_
