// Layer ceilings: the program's per-byte entry points called directly on
// workload-shaped inputs, so each end-to-end rate can be read against the
// rates of the layers beneath it.

#ifndef SWIFT_PERFBENCH_CEILINGS_H_
#define SWIFT_PERFBENCH_CEILINGS_H_

#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench {

// crc32, message encode/decode of 8 KiB DATA payloads, and erasure encode
// and reconstruct of one row of the workload's codec (m erasures), each in
// MB/s of payload or row-data bytes, measured for about `seconds_each`.
// Sets `*correct` false if a decode or a reconstruction gives wrong bytes.
std::vector<Metric> MeasureCeilings(const WorkloadSpec& spec, uint64_t seed, double seconds_each,
                                    bool* correct);

}  // namespace perfbench

#endif  // SWIFT_PERFBENCH_CEILINGS_H_
