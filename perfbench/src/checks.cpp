#include "checks.h"

#include <algorithm>
#include <bit>
#include <set>

#include "bench.h"

namespace perfbench {

const char* to_string(Intent intent) noexcept {
  switch (intent) {
    case Intent::kHonest: return "honest";
    case Intent::kBadSignature: return "bad-signature";
    case Intent::kStaleReplay: return "stale-replay";
    case Intent::kUnkeyedProbe: return "unkeyed-probe";
    case Intent::kSigmaSwap: return "sigma-swap";
  }
  return "unknown";
}

namespace {

/// Which blocks the generator invalidated on purpose.
bool intended_valid(Intent intent, std::size_t block) {
  switch (intent) {
    case Intent::kBadSignature: return block != 0;
    case Intent::kSigmaSwap: return block > 1;
    default: return true;
  }
}

std::string at(std::size_t r) { return "request " + std::to_string(r) + ": "; }

}  // namespace

FleetEpochTally check_fleet_epoch(const FleetEpochObservation& epoch,
                                  std::vector<std::string>& errors) {
  FleetEpochTally tally;
  const std::size_t n = epoch.requests.size();
  if (epoch.drained != n) {
    errors.push_back("drained " + std::to_string(epoch.drained) + " of " + std::to_string(n) +
                     " submitted requests");
  }

  std::set<std::pair<std::size_t, std::size_t>> isolated;
  std::set<std::size_t> isolated_requests;
  for (const auto& entry : epoch.invalid_entries) {
    if (entry.first >= n || entry.second >= epoch.requests[entry.first].entry_valid.size()) {
      errors.push_back("isolated entry out of range");
      continue;
    }
    if (epoch.requests[entry.first].entry_valid[entry.second]) {
      errors.push_back(at(entry.first) + "block " + std::to_string(entry.second) +
                       " isolated but passes dv_verify");
    }
    isolated.insert(entry);
    isolated_requests.insert(entry.first);
  }

  std::size_t stale = 0;
  std::size_t unkeyed = 0;
  std::size_t verified = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const FleetRequestObservation& req = epoch.requests[r];
    bool all_valid = true;
    for (std::size_t b = 0; b < req.entry_valid.size(); ++b) {
      if (req.entry_valid[b] != intended_valid(req.intent, b)) {
        errors.push_back(at(r) + to_string(req.intent) + " block " + std::to_string(b) +
                         (req.entry_valid[b] ? " passes" : " fails") + " dv_verify");
      }
      all_valid = all_valid && req.entry_valid[b];
    }
    verified += req.service_verified ? 1 : 0;
    switch (req.intent) {
      case Intent::kHonest:
        if (!req.service_verified) errors.push_back(at(r) + "honest request not verified");
        break;
      case Intent::kBadSignature:
        if (req.service_verified) errors.push_back(at(r) + "bad signature verified");
        if (!isolated.contains({r, 0})) errors.push_back(at(r) + "flipped entry not isolated");
        for (std::size_t b = 1; b < req.entry_valid.size(); ++b) {
          if (isolated.contains({r, b})) errors.push_back(at(r) + "honest entry isolated");
        }
        break;
      case Intent::kStaleReplay:
      case Intent::kUnkeyedProbe:
        (req.intent == Intent::kStaleReplay ? stale : unkeyed) += 1;
        if (req.service_verified || isolated_requests.contains(r)) {
          errors.push_back(at(r) + to_string(req.intent) + " not filtered before batching");
        }
        break;
      case Intent::kSigmaSwap:
        // Known fault: the Eq. 8/9 product accepts Σ values that cancel.
        // Accepting it is a failed operation; isolating exactly the swapped
        // pair is the correct outcome.
        if (req.service_verified) {
          ++tally.sigma_swap_accepted;
        } else if (!isolated.contains({r, 0}) || !isolated.contains({r, 1})) {
          errors.push_back(at(r) + "sigma-swap rejected without isolating the swapped pair");
        }
        break;
    }
    if (req.service_verified && !all_valid && req.intent != Intent::kSigmaSwap) {
      errors.push_back(at(r) + "verified although an entry fails dv_verify");
    }
  }

  if (epoch.stale_rejected != stale || epoch.unkeyed_rejected != unkeyed) {
    errors.push_back("filters reported " + std::to_string(epoch.stale_rejected) + " stale / " +
                     std::to_string(epoch.unkeyed_rejected) + " unkeyed, expected " +
                     std::to_string(stale) + " / " + std::to_string(unkeyed));
  }
  if (epoch.verified != verified) {
    errors.push_back("service counts " + std::to_string(epoch.verified) +
                     " verified requests, registry shows " + std::to_string(verified));
  }
  if (verified + isolated_requests.size() + epoch.stale_rejected + epoch.unkeyed_rejected !=
      epoch.drained) {
    errors.push_back("verified + isolated + filtered != drained");
  }

  // Batch accounting: each batch's attestation is signed with one pairing;
  // a clean batch then costs exactly 2 pairings and a rejected one 2 plus one
  // per bisection oracle call.
  // The service flattens the requests that pass the filters, in drained
  // order, and cuts the entry stream into batches.
  struct FlatEntry {
    bool valid;
    bool swapped;
  };
  std::vector<FlatEntry> flat;
  for (const FleetRequestObservation& req : epoch.requests) {
    if (req.intent == Intent::kStaleReplay || req.intent == Intent::kUnkeyedProbe) continue;
    for (const bool valid : req.entry_valid) {
      flat.push_back({valid, req.intent == Intent::kSigmaSwap});
    }
  }
  std::size_t cursor = 0;
  for (std::size_t b = 0; b < epoch.batches.size(); ++b) {
    const FleetBatchObservation& batch = epoch.batches[b];
    const std::string where = "batch " + std::to_string(b) + ": ";
    std::size_t invalid = 0;
    std::size_t uncancelled = 0;  // invalid entries no swap partner cancels
    for (std::size_t e = cursor; e < cursor + batch.entries && e < flat.size(); ++e) {
      if (flat[e].valid) continue;
      ++invalid;
      if (!flat[e].swapped) ++uncancelled;
    }
    cursor += batch.entries;
    if (batch.accepted) {
      ++tally.clean_batches;
      if (uncancelled != 0) errors.push_back(where + "accepted with a bad signature inside");
      continue;
    }
    ++tally.rejected_batches;
    tally.rejected_batch_pairings += 2 + batch.oracle_calls;
    if (invalid == 0) errors.push_back(where + "rejected although every entry is valid");
    const std::size_t log2n =
        batch.entries <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(batch.entries - 1));
    if (batch.oracle_calls > 1 + 2 * invalid * (log2n + 1)) {
      errors.push_back(where + std::to_string(batch.oracle_calls) +
                       " oracle calls exceed 1 + 2k(ceil(log2 n) + 1)");
    }
  }
  if (cursor != flat.size()) errors.push_back("batches do not cover the admitted entries");
  const std::uint64_t signing = epoch.batches.size();
  const std::uint64_t accounted = signing + tally.rejected_batch_pairings;
  if (epoch.run_epoch_pairings < accounted) {
    errors.push_back("run_epoch spent fewer pairings than its batches account for");
  } else {
    tally.clean_batch_pairings = epoch.run_epoch_pairings - accounted;
    if (tally.clean_batch_pairings != 2 * tally.clean_batches) {
      errors.push_back("clean batches cost " + std::to_string(tally.clean_batch_pairings) +
                       " pairings for " + std::to_string(tally.clean_batches) +
                       " batches, expected exactly 2 each");
    }
  }
  return tally;
}

void check_commitment(const seccloud::core::ComputationTask& task,
                      const std::map<std::uint64_t, std::uint64_t>& uploaded_values,
                      const std::vector<std::uint64_t>& committed_results,
                      std::vector<std::string>& errors) {
  if (committed_results.size() != task.requests.size()) {
    errors.push_back("commitment holds " + std::to_string(committed_results.size()) +
                     " results for " + std::to_string(task.requests.size()) + " requests");
    return;
  }
  std::vector<std::uint64_t> operands;
  for (std::size_t i = 0; i < task.requests.size(); ++i) {
    const auto& request = task.requests[i];
    operands.clear();
    for (const std::uint64_t pos : request.positions) operands.push_back(uploaded_values.at(pos));
    if (reference_evaluate(request.kind, operands) != committed_results[i]) {
      errors.push_back("committed result " + std::to_string(i) + " (" +
                       seccloud::core::to_string(request.kind) +
                       ") differs from the benchmark's evaluation");
    }
  }
}

}  // namespace perfbench
