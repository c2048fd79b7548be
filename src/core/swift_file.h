// SwiftFile: Unix-semantics access to a striped, optionally parity-protected
// Swift object.
//
// "Clients are provided with open, close, read, write and seek operations
// that have Unix file system semantics" (§3). A SwiftFile is the client-side
// object behind those calls: it owns the file cursor, maps logical ranges
// through the stripe layout, pipelines the per-agent stripe-unit ops through
// the distribution agent, maintains XOR parity on writes, and transparently
// reconstructs data when a storage agent fails mid-session.
//
// Data path: reads and writes are issued as whole-stripe-group batches of
// asynchronous stripe-unit ops (OpBatch over AgentTransport::StartRead/
// StartWrite). Against a pipelining transport (the UDP reactor) every column
// keeps several units in flight; against a synchronous transport the batch
// degenerates to the old one-op-per-column fan-out. Extents are chopped to
// stripe-unit granularity only when the column's window exceeds one, so the
// in-process fast path keeps its single-call-per-extent behaviour.
//
// Failure model (§2's computed-copy redundancy, generalized to k+m erasure
// coding): with parity enabled the object's codec stores m parity units per
// row — up to m concurrent failed agents are survived. Reads rebuild lost
// units through the row decoder (src/core/row_decode.h) inside the read's
// own batch: the live data units the read fetches are the decode's
// survivors, only the missing ones (usually live parity units) are added,
// and every row the read touches decodes from that one round trip. Writes
// keep every live
// parity unit consistent so later reconstruction yields the new data
// (including writes *to* failed agents, which land only in parity). More
// than m failures is kDataLoss.
// Without parity, any agent failure is surfaced as kUnavailable.
//
// Integrity (at-rest corruption): a read that fails its agent's stored
// checksum comes back kDataCorrupt. That is a *unit*-scoped failure — the
// agent is alive, one unit is bad — so the column is NOT marked failed;
// instead the unit is reconstructed from the row's survivors exactly like a
// lost unit, the verified bytes are returned to the caller, and the rebuilt
// unit is written back so the agent reseals it (read-repair). Corrupt units
// count against the same m-failure budget as lost columns: once a row's
// unreadable units (failed, hedged away, or corrupt) exceed m, the row is
// kDataLoss. Without parity there is nothing to rebuild from, so
// kDataCorrupt surfaces to the caller — corrupt bytes are never returned as
// data.
//
// Concurrency: the public interface is externally synchronized (one logical
// client), but op completions arrive on transport/pool threads, so the
// failure flags they touch are atomics.

#ifndef SWIFT_SRC_CORE_SWIFT_FILE_H_
#define SWIFT_SRC_CORE_SWIFT_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/core/agent_transport.h"
#include "src/core/distribution_agent.h"
#include "src/core/object_directory.h"
#include "src/core/row_decode.h"
#include "src/core/stripe_layout.h"
#include "src/core/transfer_plan.h"
#include "src/util/status.h"

namespace swift {

enum class SeekWhence { kSet, kCurrent, kEnd };

class SwiftFile {
 public:
  // Creates a new object with `plan`'s geometry, records it in `directory`,
  // and opens (creating) the per-agent backing files. `transports` must be
  // in stripe-column order and outlive the file. `io_options` sizes the
  // control-plane worker pool and the per-column op window.
  static Result<std::unique_ptr<SwiftFile>> Create(
      const TransferPlan& plan, std::vector<AgentTransport*> transports,
      ObjectDirectory* directory, DistributionAgent::Options io_options = {});

  // Opens an existing object; geometry and size come from the directory.
  static Result<std::unique_ptr<SwiftFile>> Open(
      const std::string& name, std::vector<AgentTransport*> transports,
      ObjectDirectory* directory, DistributionAgent::Options io_options = {});

  ~SwiftFile();
  SwiftFile(const SwiftFile&) = delete;
  SwiftFile& operator=(const SwiftFile&) = delete;

  // --- Unix file interface -------------------------------------------------

  // Reads at the cursor; returns bytes read (short at EOF, 0 at/after EOF).
  Result<uint64_t> Read(std::span<uint8_t> out);
  // Writes at the cursor; extends the object as needed. Returns bytes
  // written (always out.size() on success).
  Result<uint64_t> Write(std::span<const uint8_t> data);
  // Moves the cursor; returns the new absolute offset. Seeking past EOF is
  // allowed (a later write creates a hole that reads back as zeros).
  Result<uint64_t> Seek(int64_t offset, SeekWhence whence);
  // Sets the object's size (ftruncate semantics). Growing exposes zeros;
  // shrinking trims the per-agent files and recomputes the boundary row's
  // parity so redundancy stays intact. Not supported in degraded mode.
  Status Truncate(uint64_t new_size);
  // Flushes metadata (object size) to the directory and closes every agent
  // handle. Further operations fail. Also invoked by the destructor.
  Status Close();

  // --- positional variants -------------------------------------------------
  Result<uint64_t> PRead(uint64_t offset, std::span<uint8_t> out);
  Result<uint64_t> PWrite(uint64_t offset, std::span<const uint8_t> data);

  // --- introspection -------------------------------------------------------
  uint64_t size() const { return size_; }
  uint64_t cursor() const { return cursor_; }
  const std::string& name() const { return name_; }
  const StripeLayout& layout() const { return layout_; }
  const DistributionAgent& distribution() const { return distribution_; }
  // Columns currently marked failed (kUnavailable seen).
  std::vector<uint32_t> failed_columns() const;
  bool degraded() const { return failed_count_.load() > 0; }
  // Trace id of the most recent PRead/PWrite that opened a root span (0 if
  // none yet, or tracing is off) — what `swift_cli trace <id>` queries.
  uint64_t last_trace_id() const { return last_trace_id_.load(std::memory_order_relaxed); }

  // Tests and examples: force a column into the failed state without waiting
  // for a transport error.
  void MarkColumnFailed(uint32_t column);

 private:
  SwiftFile(std::string name, StripeConfig stripe, std::vector<AgentTransport*> transports,
            ObjectDirectory* directory, DistributionAgent::Options io_options);

  Status OpenAgentFiles(uint32_t flags);

  // [agent_offset, +length) of `column`, delivered to `dst`.
  struct RangeRead {
    uint32_t column = 0;
    uint64_t agent_offset = 0;
    uint64_t length = 0;
    uint8_t* dst = nullptr;
  };

  // Checksum failures observed by one read batch's completions. Ops land
  // here (instead of failing the batch) so the batch can finish and the
  // corrupt units be repaired afterwards.
  struct CorruptSink {
    std::mutex mutex;
    std::vector<RangeRead> ops;
  };

  // Read ops of one live batch tracked for hedging. Every submitted read
  // registers a slot here so the hedge loop can see which ops are still
  // outstanding, cancel a straggler column's cancellable ones, and mark them
  // parked: a parked op resolves OK whatever its transport status, and its
  // range is rebuilt from parity after the batch. An op that has not started
  // when parked is never issued at all. Shared-owned: the submit path keeps
  // touching the tracker after it starts the transport op (token store), and
  // the final completion releases the batch waiter — so stack ownership
  // would let the waiter's frame die under a thread still holding the mutex.
  struct HedgeTracker {
    struct Op {
      uint32_t column = 0;
      uint64_t agent_offset = 0;
      uint64_t length = 0;
      uint8_t* dst = nullptr;
      uint64_t token = 0;    // cancellable-read token (0 = none)
      bool started = false;  // transport op issued
      bool done = false;     // completion delivered
      bool parked = false;   // hedged away; reconstruct after the batch
      bool landed = false;   // parked, but its own reply won the race
    };
    std::mutex mutex;
    std::vector<Op> ops;
  };

  // Failure-aware read of [offset, offset+length) into out (zero-filled past
  // stored data). `length` must fit in out.
  Status ReadRange(uint64_t offset, std::span<uint8_t> out);
  // Waits for a live read batch with the hedge armed: after a no-progress
  // hedge delay with every outstanding op on at most m - failed straggler
  // columns, cancels those columns' ops (appending the ones whose reply did
  // not land first to `parked`) so erasure reconstruction can finish the
  // read instead of the stragglers. A stall of the client itself — a round
  // that overran its timeout, or a reply waiting unread in the socket — is no
  // straggler. At most one hedge per batch; the global governor keeps hedges
  // ≤5% of reads.
  std::vector<Status> WaitHedged(OpBatch& batch, HedgeTracker& tracker,
                                 std::vector<HedgeTracker::Op>* parked);
  // Rebuilds `ranges` in place through the row decoder, writing nothing
  // back: every row they touch in one batch, each survivor read once over
  // the hull of its row's ranges. Failed columns and `avoid` (hedged-away
  // stragglers) are not read; survivors found unavailable are marked failed.
  Status ReconstructRanges(std::span<const RangeRead> ranges,
                           std::span<const uint32_t> avoid = {});
  // Marks the decode's unavailable survivors failed; on success counts the
  // `units` rebuilt and the rows decoded around two or more erasures.
  Status RecordDecode(const Status& status, const RowDecodeReport& report, size_t units);
  // The hedge arm delay: max over live columns of srtt + hedge_k·rttvar,
  // clamped to [hedge_floor_us, hedge_cap_us]; the cap when no column has an
  // RTT estimate yet.
  uint64_t HedgeDelayUs() const;
  // Heals one corrupt read op: rebuilds the units it covers, copies the
  // requested slice into the op's destination, and best-effort writes the
  // rebuilt units back (read-repair).
  Status RepairReadOp(const RangeRead& op);
  // Verifies every live unit of `row`, read in one batch, and rewrites
  // corrupt ones from parity reconstruction. Used when a read-modify-write
  // gather hits kDataCorrupt.
  Status RepairRow(uint64_t row);
  // Concurrent column failures the object's codec covers (m with parity on,
  // 0 without).
  uint32_t ParityBudget() const;

  Status WriteRange(uint64_t offset, std::span<const uint8_t> data);
  // Partial-row read-modify-write in two round trips: one gather of the old
  // data ranges and the touched range of each live parity unit, an in-memory
  // fold, then one batch writing the parity ranges and the data together.
  Status WriteRowParity(uint64_t row, uint64_t row_write_start, uint64_t row_write_end,
                        uint64_t base_offset, std::span<const uint8_t> data);
  // One absolute write of `bytes` at agent_offset on `column`.
  struct PendingWrite {
    uint32_t column = 0;
    uint64_t agent_offset = 0;
    std::span<const uint8_t> bytes;
  };
  // Sends `writes` (at most one row unit per column) as one batch. A write
  // that fails on a column that stays live is re-sent with the same bytes, a
  // bounded number of times, even when another column went kUnavailable;
  // kUnavailable marks its column failed and is returned so WriteRange
  // re-plans. The bytes must stay valid until the call returns.
  Status WriteWithResend(std::vector<PendingWrite> writes);
  // Full rows: in-memory parity, every unit write of every row in one batch.
  Status WriteFullRows(const std::vector<uint64_t>& rows, uint64_t base_offset,
                       std::span<const uint8_t> data);

  // --- async op submission (completions may run on any thread) -------------

  // One read of [agent_offset, +length) on `column` into `dst`. When
  // `corrupt` is non-null a kDataCorrupt completion is recorded there and
  // the op resolves OK (the caller repairs after the batch); when null,
  // kDataCorrupt fails the op like any other error. When `hedge` is non-null
  // the op registers in the tracker and is issued cancellably, so a hedge
  // can claim it mid-flight.
  void SubmitRead(OpBatch& batch, uint32_t column, uint64_t agent_offset, uint64_t length,
                  uint8_t* dst, CorruptSink* corrupt = nullptr,
                  const std::shared_ptr<HedgeTracker>& hedge = nullptr);
  // One write of `bytes` at agent_offset on `column`. `bytes` must stay
  // valid until the batch completes.
  void SubmitWrite(OpBatch& batch, uint32_t column, uint64_t agent_offset,
                   std::span<const uint8_t> bytes);
  // Submits `extent` as stripe-unit ops when the column window allows
  // pipelining, else as one op.
  void SubmitExtentRead(OpBatch& batch, const AgentExtent& extent, uint64_t base_offset,
                        std::span<uint8_t> out, CorruptSink* corrupt = nullptr,
                        const std::shared_ptr<HedgeTracker>& hedge = nullptr);
  void SubmitExtentWrite(OpBatch& batch, const AgentExtent& extent, uint64_t base_offset,
                         std::span<const uint8_t> data);

  // Wraps a transport call: on kUnavailable, marks the column failed.
  Status GuardedCall(uint32_t column, const std::function<Status()>& fn);
  bool ColumnFailed(uint32_t column) const { return failed_[column].load(); }

  std::string name_;
  StripeLayout layout_;
  DistributionAgent distribution_;
  ObjectDirectory* directory_;
  std::vector<uint32_t> handles_;
  // Over layout_, distribution_ and handles_; declared after them.
  RowDecoder decoder_;
  // Atomic: set from op completions on transport/pool threads.
  std::vector<std::atomic<bool>> open_;
  std::vector<std::atomic<bool>> failed_;
  std::atomic<uint32_t> failed_count_{0};
  std::atomic<uint64_t> last_trace_id_{0};
  uint64_t size_ = 0;
  uint64_t cursor_ = 0;
  bool closed_ = false;
};

}  // namespace swift

#endif  // SWIFT_SRC_CORE_SWIFT_FILE_H_
