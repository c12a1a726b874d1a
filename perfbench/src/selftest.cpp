// Checker self-test: runs the workloads briefly on the small test
// group, confirms the unmodified observations pass, then plants one fault of
// each kind and confirms the checks report it.
#include <cstdio>

#include "workloads.h"

namespace perfbench {

int self_test() {
  const auto& group = seccloud::pairing::tiny_group();
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("self-test: %-58s %s\n", what, ok ? "ok" : "FAILED");
    failures += ok ? 0 : 1;
  };

  FleetBench honest{group, 7, /*byzantine=*/false, nullptr};
  FleetBench byzantine{group, 7, /*byzantine=*/true, nullptr};
  for (int epoch = 0; epoch < 2; ++epoch) {
    std::vector<std::string> errors;
    const FleetEpoch ep = byzantine.run_epoch(errors);
    const FleetEpochTally tally = check_fleet_epoch(ep.observation, errors);
    expect(errors.empty(), "fleet_byzantine epoch passes its checks");
    expect(tally.sigma_swap_accepted == kSigmaSwaps, "the sigma-swap is counted as failed");

    FleetEpochObservation flipped = ep.observation;
    for (auto& req : flipped.requests) {
      if (req.intent == Intent::kHonest) {
        req.service_verified = !req.service_verified;
        break;
      }
    }
    errors.clear();
    check_fleet_epoch(flipped, errors);
    expect(!errors.empty(), "a flipped verdict is reported");


    errors.clear();
    const FleetEpoch clean = honest.run_epoch(errors);
    const FleetEpochTally clean_tally = check_fleet_epoch(clean.observation, errors);
    expect(errors.empty() && clean_tally.clean_batches > 0, "fleet_honest epoch passes its checks");
    FleetEpochObservation extra = clean.observation;
    extra.run_epoch_pairings += clean_tally.clean_batches;  // 3 pairings per clean batch
    errors.clear();
    check_fleet_epoch(extra, errors);
    expect(!errors.empty(), "a wrong pairing count per clean batch is reported");
  }

  UploadBench upload{group, 7, nullptr};
  std::vector<std::string> errors;
  upload.run_round(errors);
  expect(errors.empty(), "upload round passes its checks");
  errors.clear();
  check_commitment(upload.last_task(), upload.uploaded_values(), upload.last_results(), errors);
  expect(errors.empty(), "the committed results match the reference evaluation");
  std::vector<std::uint64_t> altered = upload.last_results();
  altered[altered.size() / 2] ^= 1;
  errors.clear();
  check_commitment(upload.last_task(), upload.uploaded_values(), altered, errors);
  expect(!errors.empty(), "an altered commitment result is reported");

  std::printf("self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
