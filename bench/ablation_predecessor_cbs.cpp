// Ablation E7 — the cost of privacy: SecCloud's designated-verifier audit
// vs its direct predecessor, Du et al.'s Commitment-Based Sampling (CBS,
// ICDCS'04 — the paper's reference [7]).
//
// CBS needs only hashes (fast) but is PUBLICLY verifiable, which is exactly
// what enables the paper's privacy-cheating attack (anyone can authenticate
// resold data). SecCloud pays pairings per audit to close that gap. This
// bench quantifies the price and shows the detection power is identical
// (same sampling math).
#include <chrono>
#include <cstdio>

#include "baselines/cbs.h"
#include "bench_support.h"
#include "seccloud/system.h"

using namespace seccloud;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

std::uint64_t grid_function(std::uint64_t x) { return x * x * 31 + x * 7 + 1; }

}  // namespace

int main() {
  seccloud::bench::Bench bench{"ablation_predecessor_cbs"};
  std::printf("=== E7: SecCloud vs CBS (the cost of privacy) ===\n\n");
  constexpr std::uint64_t kDomain = 64;

  // --- CBS: hash-only commitment + sampling -------------------------------
  num::Xoshiro256 rng{909};
  auto cbs_start = std::chrono::steady_clock::now();
  const auto participant = baselines::CbsParticipant::compute(grid_function, kDomain);
  const double cbs_commit_ms = ms_since(cbs_start);

  cbs_start = std::chrono::steady_clock::now();
  const auto cbs_report = baselines::CbsSupervisor::audit(grid_function, participant.root(),
                                                          participant, 15, rng);
  const double cbs_audit_ms = ms_since(cbs_start);

  // --- SecCloud: DV signatures + Merkle + sampling (tiny group) ------------
  const auto& g = pairing::tiny_group();
  bench.use_group(g);
  core::SecCloudSystem sys{g, 909};
  auto user = sys.register_user("grid-user");
  std::vector<core::DataBlock> blocks;
  for (std::uint64_t i = 0; i < kDomain; ++i) {
    blocks.push_back(core::DataBlock::from_value(i, i));
  }
  auto upload_start = std::chrono::steady_clock::now();
  auto upload = user.sign_blocks(std::move(blocks));
  const double sign_ms = ms_since(upload_start);
  sys.cloud_server().store(user.key().q_id, upload);

  core::ComputationTask task;
  for (std::uint64_t i = 0; i < kDomain; ++i) {
    core::ComputeRequest req;
    req.kind = core::FuncKind::kDotSelf;  // a per-input computation
    req.positions = {i};
    task.requests.push_back(std::move(req));
  }
  auto commit_start = std::chrono::steady_clock::now();
  const auto executed = sys.cloud_server().compute(user.key().q_id, task);
  const double seccloud_commit_ms = ms_since(commit_start);

  auto audit_start = std::chrono::steady_clock::now();
  const auto report = sys.agency().audit(user, sys.cloud_server(), executed.task_id, task,
                                         executed.commitment, 15, 1);
  const double seccloud_audit_ms = ms_since(audit_start);
  const auto& ops = report.ops;  // the DA's verification only

  std::printf("%-34s %14s %14s\n", "", "CBS [7]", "SecCloud");
  std::printf("%-34s %14.2f %14.2f\n", "commit time (ms)", cbs_commit_ms, seccloud_commit_ms);
  std::printf("%-34s %14.2f %14.2f\n", "audit time, t=15 (ms)", cbs_audit_ms,
              seccloud_audit_ms);
  std::printf("%-34s %14s %14llu\n", "pairings per audit", "0",
              static_cast<unsigned long long>(ops.pairings));
  std::printf("%-34s %14s %14s\n", "block signing (user side)", "none",
              (std::to_string(static_cast<int>(sign_ms)) + " ms").c_str());
  std::printf("%-34s %14s %14s\n", "verifier set", "ANYONE", "CS + DA only");
  std::printf("%-34s %14s %14s\n", "resale with proof possible?", "YES", "no");
  std::printf("%-34s %14s %14s\n", "detects wrong-position data?", "no", "yes (Eq. 7)");
  std::printf("%-34s %14s %14s\n", "audit verdict (honest server)",
              cbs_report.accepted ? "accept" : "reject", report.accepted ? "accept" : "reject");

  std::printf("\nthe sampling math (Fig. 4 / Eq. 10) is shared: both schemes need the\n"
              "same t for the same detection level; SecCloud's extra pairings buy\n"
              "designated verification (privacy) and signed position binding.\n");
  bench.value("cbs_audit_ms", cbs_audit_ms);
  bench.value("seccloud_audit_ms", seccloud_audit_ms);
  bench.value("seccloud_audit_pairings", static_cast<double>(ops.pairings));
  if (!cbs_report.accepted || !report.accepted) return 1;
  return bench.finish();
}
