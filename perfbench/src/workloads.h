// The benchmark's workloads. Each workload class does its set-up in its constructor
// (the part `setup_s` times) and then runs whole rounds; run_fleet and
// run_upload loop rounds for the requested wall time and turn them into
// metrics.
#pragma once

#include <array>
#include <map>
#include <memory>

#include "bench.h"
#include "checks.h"
#include "ibc/keys.h"
#include "layers.h"
#include "obs/journey.h"
#include "seccloud/service/service.h"
#include "seccloud/system.h"
#include "sim/fleet.h"

namespace perfbench {

// --- fleet_honest / fleet_byzantine -------------------------------------------

/// Entries per shared batch; the requests that pass the filters fill exactly
/// one batch per epoch.
inline constexpr std::size_t kBatchEntries = 64;
inline constexpr std::size_t kBlocksPerRequest = 4;

/// Misbehaving requests per fleet_byzantine epoch of 18.
inline constexpr std::size_t kBadSignatures = 2;
inline constexpr std::size_t kStaleReplays = 1;
inline constexpr std::size_t kUnkeyedProbes = 1;
inline constexpr std::size_t kSigmaSwaps = 1;

/// Identities in the service's registry.
inline constexpr std::size_t kRegisteredUsers = 1'000'000;

/// Keyed working set = requests per epoch: one batch of admitted requests,
/// plus the filtered ones on fleet_byzantine.
constexpr std::size_t active_users(bool byzantine) noexcept {
  return kBatchEntries / kBlocksPerRequest + (byzantine ? kStaleReplays + kUnkeyedProbes : 0);
}

struct FleetEpoch {
  FleetEpochObservation observation;
  std::vector<double> submit_us;           ///< one per submit() call
  std::vector<double> request_latency_ms;  ///< submit() entry → run_epoch() return
  double submit_ms = 0.0;
  double run_epoch_ms = 0.0;
  double sign_ms = 0.0;  ///< make_requests: untimed input generation
  double sign_scale = 1.0;  ///< host_scale of make_requests
  std::size_t blocks_signed = 0;
  std::size_t entries = 0;
  std::size_t request_bytes = 0;  ///< encode_block_list of one request's blocks
  seccloud::pairing::OpCounters sign_ops;
  seccloud::pairing::OpCounters epoch_ops;
  double check_ms = 0.0;
  double host_scale = 1.0;  ///< of the submit wave and run_epoch
  /// Stage walls read from the attached journey recorder (traced run only),
  /// ms: filter, flatten, attest, verify, bisect, verdict.
  std::array<double, 6> stage_ms{};
};

class FleetBench {
 public:
  /// `setup` (null in the self-test) takes host probes between set-up steps.
  FleetBench(const seccloud::pairing::PairingGroup& group, std::uint64_t seed, bool byzantine,
             Tracer* tracer, SetupTimer* setup = nullptr);

  /// Generates, checks entry by entry, submits, runs one epoch, and checks the
  /// verdicts. Violations go to `errors`.
  FleetEpoch run_epoch(std::vector<std::string>& errors);

  const seccloud::service::AuditService& service() const noexcept { return *svc_; }
  double populate_ms() const noexcept { return populate_ms_; }
  /// The run's last epochs (kept in the traced run only) as replay inputs.
  ReplayInputs replay_inputs() const;

 private:
  const seccloud::pairing::PairingGroup* group_;
  bool byzantine_;
  Tracer* tracer_;
  SeedRng rng_;
  std::unique_ptr<seccloud::num::Xoshiro256> key_rng_;
  std::unique_ptr<seccloud::ibc::Sio> sio_;
  seccloud::ibc::IdentityKey da_;
  seccloud::ibc::IdentityKey cs_;
  std::unique_ptr<seccloud::service::AuditService> svc_;
  std::unique_ptr<seccloud::sim::FleetWorkload> fleet_;
  std::unique_ptr<seccloud::obs::JourneyRecorder> journeys_;
  double populate_ms_ = 0.0;
  std::vector<seccloud::pairing::Point> q_ids_;  ///< active users' identity points
  std::vector<Intent> last_intent_;
  struct Kept {
    std::vector<seccloud::service::AuditRequest> requests;
    std::vector<Intent> intents;
    std::vector<std::size_t> signer;  ///< active index of each request's signer
  };
  std::vector<Kept> kept_;
};

RunResult run_fleet(const Options& options, bool byzantine, SetupTimer& setup);

// --- upload_audit ---------------------------------------------------------------

/// Registered users, served round-robin; registering them is most of the
/// set-up that setup_s times.
inline constexpr std::size_t kUploadUsers = 2048;
inline constexpr std::size_t kBlocksPerUpload = 16;
inline constexpr std::size_t kTaskRequests = 512;
inline constexpr std::size_t kOperands = 4;        ///< per sub-task
inline constexpr std::size_t kAuditSamples = 33;   ///< Fig. 4 default t
inline constexpr std::size_t kAuditsPerRound = 2;  ///< Algorithm-1 audits

struct UploadRound {
  double upload_ms = 0.0;  ///< sign_blocks + store
  std::size_t blocks = 0;
  double compute_ms = 0.0;
  std::vector<double> audit_ms;
  // host_scale of each timed step, from the probes right around it.
  double upload_scale = 1.0;
  double compute_scale = 1.0;
  std::vector<double> audit_scale;
  seccloud::pairing::OpCounters sign_ops;
  seccloud::pairing::OpCounters audit_ops;  ///< summed over the round's audits
  std::size_t response_bytes = 0;
  double check_ms = 0.0;
  // Traced run only.
  double store_ms = 0.0;
  double respond_ms = 0.0;
  double verify_audit_ms = 0.0;
  double encode_response_us = 0.0;
  std::size_t signature_checks = 0;  ///< input-block signatures + Sig_CS(R)
};

class UploadBench {
 public:
  /// `setup` (null in the self-test) takes host probes between set-up steps.
  UploadBench(const seccloud::pairing::PairingGroup& group, std::uint64_t seed, Tracer* tracer,
              SetupTimer* setup = nullptr);

  UploadRound run_round(std::vector<std::string>& errors);

  /// What the last round committed, for the checker self-test.
  const seccloud::core::ComputationTask& last_task() const noexcept { return last_task_; }
  const std::vector<std::uint64_t>& last_results() const noexcept { return last_results_; }
  const std::map<std::uint64_t, std::uint64_t>& uploaded_values() const noexcept {
    return values_;
  }
  ReplayInputs replay_inputs() const;

 private:
  const seccloud::pairing::PairingGroup* group_;
  Tracer* tracer_;
  SeedRng rng_;
  std::unique_ptr<seccloud::core::SecCloudSystem> sys_;
  std::vector<seccloud::core::SystemUser> users_;
  std::vector<std::vector<std::uint64_t>> stored_;  ///< per user: stored block indices
  std::map<std::uint64_t, std::uint64_t> values_;   ///< block index → uploaded value
  std::size_t round_ = 0;
  seccloud::core::ComputationTask last_task_;
  std::vector<std::uint64_t> last_results_;
  std::vector<seccloud::core::SignedBlock> last_upload_;
  std::size_t last_user_ = 0;
};

RunResult run_upload(const Options& options, SetupTimer& setup);

/// Proves each output check can fail; returns 0 when every planted fault was
/// reported and the unmodified observations passed.
int self_test();

}  // namespace perfbench
