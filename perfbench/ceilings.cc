#include "perfbench/ceilings.h"

#include <chrono>

#include "src/core/erasure.h"
#include "src/proto/message.h"
#include "src/util/buffer.h"
#include "src/util/crc32.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Calls `step` (which processes `bytes_per_step` bytes) until `seconds`
// have passed; returns MB/s.
template <typename Fn>
double Rate(double seconds, uint64_t bytes_per_step, Fn&& step) {
  for (int i = 0; i < 8; ++i) {
    step();  // warm caches and lazily built tables
  }
  uint64_t steps = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    for (int i = 0; i < 16; ++i) {
      step();
    }
    steps += 16;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < seconds);
  return static_cast<double>(steps * bytes_per_step) / elapsed / 1e6;
}

}  // namespace

std::vector<Metric> MeasureCeilings(const WorkloadSpec& spec, uint64_t seed, double seconds_each,
                                    bool* correct) {
  std::vector<Metric> metrics;
  volatile uint64_t sink = 0;

  std::vector<uint8_t> payload_bytes(swift::kMaxPacketPayload);
  FillPattern(payload_bytes, seed, 1, 0);
  metrics.push_back({"ceiling.crc32_mbps", Rate(seconds_each, payload_bytes.size(), [&] {
                       sink = sink + swift::Crc32(payload_bytes);
                     }),
                     "MB/s"});

  swift::Message message;
  message.type = swift::MessageType::kData;
  message.handle = 1;
  message.request_id = 7;
  message.payload = swift::BufferSlice::CopyOf(payload_bytes);
  metrics.push_back({"ceiling.message_encode_mbps", Rate(seconds_each, payload_bytes.size(), [&] {
                       sink = sink + message.EncodeParts().size();
                     }),
                     "MB/s"});

  const swift::BufferSlice datagram = swift::BufferSlice::CopyOf(message.Encode());
  auto decoded = swift::Message::Decode(datagram);
  if (!decoded.ok() || decoded->payload.span().size() != payload_bytes.size() ||
      !std::equal(payload_bytes.begin(), payload_bytes.end(), decoded->payload.span().begin())) {
    *correct = false;
  }
  metrics.push_back({"ceiling.message_decode_mbps", Rate(seconds_each, payload_bytes.size(), [&] {
                       sink = sink + swift::Message::Decode(datagram).ok();
                     }),
                     "MB/s"});

  // One stripe row of the workload's codec.
  swift::StripeConfig stripe;
  stripe.num_agents = spec.agents;
  stripe.stripe_unit = spec.unit;
  stripe.parity = swift::ParityMode::kRotating;
  stripe.parity_units = spec.parity_units;
  stripe.codec =
      spec.parity_units > 1 ? swift::ErasureKind::kReedSolomon : swift::ErasureKind::kXor;
  const swift::ErasureCodec& codec = swift::CodecFor(stripe);
  const uint32_t k = codec.data_units();
  const uint32_t m = codec.parity_units();
  const uint64_t row_bytes = k * spec.unit;

  std::vector<std::vector<uint8_t>> units(k + m, std::vector<uint8_t>(spec.unit));
  for (uint32_t i = 0; i < k; ++i) {
    FillPattern(units[i], seed, 2, i * spec.unit);
  }
  std::vector<std::span<const uint8_t>> data(units.begin(), units.begin() + k);
  std::vector<std::span<uint8_t>> parity(units.begin() + k, units.end());
  metrics.push_back({"ceiling.erasure_encode_mbps", Rate(seconds_each, row_bytes, [&] {
                       codec.EncodeInto(data, parity);
                     }),
                     "MB/s"});

  // Erase the first m data units and rebuild them from the k survivors.
  std::vector<uint32_t> erased(m);
  for (uint32_t i = 0; i < m; ++i) {
    erased[i] = i;
  }
  auto plan = codec.PlanReconstruction(erased);
  if (!plan.ok()) {
    *correct = false;
    return metrics;
  }
  std::vector<std::span<const uint8_t>> survivors;
  for (uint32_t position : plan->survivors) {
    survivors.push_back(units[position]);
  }
  std::vector<std::vector<uint8_t>> rebuilt(plan->targets.size(),
                                            std::vector<uint8_t>(spec.unit));
  std::vector<std::span<uint8_t>> targets(rebuilt.begin(), rebuilt.end());
  metrics.push_back({"ceiling.erasure_reconstruct_mbps", Rate(seconds_each, row_bytes, [&] {
                       swift::ReconstructWithPlan(*plan, survivors, targets);
                     }),
                     "MB/s"});
  for (size_t t = 0; t < plan->targets.size(); ++t) {
    if (rebuilt[t] != units[plan->targets[t]]) {
      *correct = false;
    }
  }
  return metrics;
}

}  // namespace perfbench
