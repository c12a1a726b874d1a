// Output checks. Each takes what the program produced next to what the
// benchmark computed apart from it (generator intent, per-entry Eq. 5/7
// dv_verify, its own function evaluation) and appends one message per
// violation. The self-test feeds them deliberately wrong observations to
// prove that every check can fail.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "seccloud/types.h"

namespace perfbench {

/// What the fleet generator meant a request to be.
enum class Intent : std::uint8_t { kHonest, kBadSignature, kStaleReplay, kUnkeyedProbe, kSigmaSwap };

const char* to_string(Intent intent) noexcept;

struct FleetRequestObservation {
  Intent intent = Intent::kHonest;
  std::vector<bool> entry_valid;  ///< per block: ibc::dv_verify under sk_DA
  bool service_verified = false;  ///< the registry recorded this request's version
};

struct FleetBatchObservation {
  std::size_t entries = 0;
  bool accepted = false;
  std::size_t oracle_calls = 0;
};

/// One epoch as the service reported it, with the benchmark's own view of
/// every submitted request (submission order = the service's drained order).
struct FleetEpochObservation {
  std::vector<FleetRequestObservation> requests;
  std::size_t drained = 0;
  std::size_t verified = 0;
  std::size_t stale_rejected = 0;
  std::size_t unkeyed_rejected = 0;
  std::vector<std::pair<std::size_t, std::size_t>> invalid_entries;  ///< (request, block)
  std::vector<FleetBatchObservation> batches;
  /// Lifetime pairing delta across run_epoch: one attestation-signing pairing
  /// per batch plus the verification pairings.
  std::uint64_t run_epoch_pairings = 0;
};

struct FleetEpochTally {
  std::size_t sigma_swap_accepted = 0;  ///< failed operations (known fault)
  std::size_t clean_batches = 0;
  std::size_t rejected_batches = 0;
  std::uint64_t clean_batch_pairings = 0;     ///< summed over clean batches
  std::uint64_t rejected_batch_pairings = 0;  ///< summed over rejected batches
};

FleetEpochTally check_fleet_epoch(const FleetEpochObservation& epoch,
                                  std::vector<std::string>& errors);

/// Every committed result equals the benchmark's own evaluation of that
/// request's function over the block values it uploaded.
void check_commitment(const seccloud::core::ComputationTask& task,
                      const std::map<std::uint64_t, std::uint64_t>& uploaded_values,
                      const std::vector<std::uint64_t>& committed_results,
                      std::vector<std::string>& errors);

}  // namespace perfbench
