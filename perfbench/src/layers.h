// Per-layer replays for the traced run: unit costs of the ibc, pairing, ec,
// field, hash and merkle layers, each measured by timing a loop of calls into
// the layer's public functions on the run's own inputs, plus the replay of the
// run's own signature batches.
#pragma once

#include <vector>

#include "bench.h"
#include "ibc/dvs.h"

namespace perfbench {

/// One run's own signed entries and the keys that produced and check them.
struct ReplayInputs {
  const seccloud::pairing::PairingGroup* group = nullptr;
  const seccloud::ibc::IdentityKey* signer = nullptr;    ///< re-signs the messages
  const seccloud::ibc::IdentityKey* verifier = nullptr;  ///< holds sk_B
  const seccloud::ibc::IdentityKey* attestor = nullptr;  ///< signs batch attestations
  seccloud::pairing::Point q_cs;
  seccloud::pairing::Point q_da;
  std::vector<seccloud::pairing::Point> signer_q_ids;  ///< per entry
  std::vector<seccloud::core::Bytes> messages;         ///< per entry
  std::vector<seccloud::ibc::DvSignature> sigs;        ///< per entry, designated to verifier
  /// The run's batches as [first, first + size) ranges over the entries.
  std::vector<std::pair<std::size_t, std::size_t>> batches;
};

/// Appends ibc.*, pairing.* unit costs, ec.*, field.*, hash.* and merkle.*
/// metrics to `result.per_layer`.
void replay_layers(const ReplayInputs& in, Tracer& tracer, std::uint64_t seed,
                   RunResult& result);

}  // namespace perfbench
