// fleet_honest / fleet_byzantine: the AuditService over a 10^6-identity
// registry, one engine thread, one freshly signed submit wave per epoch.
#include <algorithm>
#include <numeric>

#include "ibc/dvs.h"
#include "seccloud/client.h"
#include "seccloud/codec.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace service = seccloud::service;
namespace sim = seccloud::sim;
using seccloud::obs::JourneyStage;
using seccloud::obs::JourneyVerdict;

template <typename T>
void shuffle(std::vector<T>& v, SeedRng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

sim::FleetBehavior behavior_of(Intent intent) {
  switch (intent) {
    case Intent::kBadSignature: return sim::FleetBehavior::kBadSignature;
    case Intent::kStaleReplay: return sim::FleetBehavior::kStaleReplay;
    case Intent::kUnkeyedProbe: return sim::FleetBehavior::kUnkeyedProbe;
    default: return sim::FleetBehavior::kHonest;  // Σ-swaps are signed honestly, then swapped
  }
}

}  // namespace

FleetBench::FleetBench(const seccloud::pairing::PairingGroup& group, std::uint64_t seed,
                       bool byzantine, Tracer* tracer, SetupTimer* setup)
    : group_(&group), byzantine_(byzantine), tracer_(tracer), rng_(seed) {
  key_rng_ = std::make_unique<seccloud::num::Xoshiro256>(seed);
  sio_ = std::make_unique<seccloud::ibc::Sio>(group, *key_rng_);
  da_ = sio_->extract("agency@perfbench");
  cs_ = sio_->extract("cloud-server@perfbench");
  service::ServiceConfig config;
  config.threads = 1;
  config.epoch.queue_capacity = active_users(byzantine);
  config.epoch.batch_capacity = kBatchEntries;
  svc_ = std::make_unique<service::AuditService>(group, da_, cs_, config);
  if (tracer != nullptr) {
    journeys_ = std::make_unique<seccloud::obs::JourneyRecorder>(
        seccloud::obs::JourneyRecorderConfig{.ring_capacity = 4096});
    svc_->attach_journeys(journeys_.get());
  }
  fleet_ = std::make_unique<sim::FleetWorkload>(
      *sio_, sim::FleetConfig{.users = kRegisteredUsers,
                              .active_users = active_users(byzantine),
                              .blocks_per_request = kBlocksPerRequest,
                              .seed = seed,
                              .include_unkeyed_probe = byzantine});
  if (setup != nullptr) setup->probe();
  const auto t0 = Clock::now();
  {
    Span span{tracer, "service.populate"};
    fleet_->populate(*svc_);
  }
  populate_ms_ = ms_between(t0, Clock::now());
  if (setup != nullptr) setup->unscaled(populate_ms_);
  last_intent_.assign(active_users(byzantine), Intent::kHonest);
}

FleetEpoch FleetBench::run_epoch(std::vector<std::string>& errors) {
  const auto& g = *group_;
  const std::size_t active = active_users(byzantine_);
  FleetEpoch out;

  // --- the epoch's plan: who misbehaves and the submission order ------------
  std::vector<std::size_t> perm(active);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  shuffle(perm, rng_);
  std::vector<Intent> intent(active, Intent::kHonest);
  std::vector<std::size_t> wave;
  if (!byzantine_) {
    wave = perm;
  } else {
    // A stale replay is filtered only if the user's last issued version was
    // audited, so it goes to users whose last request was honest or stale.
    std::vector<std::size_t> rest;
    std::size_t stale = 0;
    for (const std::size_t i : perm) {
      const bool eligible =
          last_intent_[i] == Intent::kHonest || last_intent_[i] == Intent::kStaleReplay;
      if (stale < kStaleReplays && eligible) {
        intent[i] = Intent::kStaleReplay;
        ++stale;
      } else {
        rest.push_back(i);
      }
    }
    std::size_t k = 0;
    for (std::size_t j = 0; j < kBadSignatures; ++j) intent[rest[k++]] = Intent::kBadSignature;
    for (std::size_t j = 0; j < kUnkeyedProbes; ++j) intent[rest[k++]] = Intent::kUnkeyedProbe;
    for (std::size_t j = 0; j < kSigmaSwaps; ++j) intent[rest[k++]] = Intent::kSigmaSwap;
    // perm is already a seeded order. The admitted requests fill one batch
    // of 64, so bisection splits only at multiples of the 4-entry request
    // and at the middle of each request: the swapped blocks 0 and 1 always
    // stay together and cancel, and the Σ-swap's outcome does not depend on
    // the seed. In a batch of another size a split could fall between them.
    wave = perm;
  }

  // --- untimed input generation: fresh signatures for every block -----------
  // Work is counted by lifetime counter deltas: the library's auditors
  // rebaseline the shared counters() view.
  const double probe_sign = host_probe_ms();
  auto ops0 = g.lifetime_counters();
  auto t0 = Clock::now();
  std::vector<service::AuditRequest> requests;
  {
    Span span{tracer_, "sim.make_requests"};
    requests = fleet_->make_requests(
        *svc_, [&intent](std::size_t i) { return behavior_of(intent[i]); });
  }
  out.sign_ms = ms_between(t0, Clock::now());
  out.sign_scale = host_scale(probe_sign, host_probe_ms());
  out.sign_ops = g.lifetime_counters() - ops0;
  for (std::size_t i = 0; i < active; ++i) {
    out.blocks_signed += requests[i].blocks.size();
    if (intent[i] == Intent::kSigmaSwap) {
      std::swap(requests[i].blocks[0].sig.sigma_da, requests[i].blocks[1].sig.sigma_da);
    }
  }

  // --- untimed checks before submission: Eq. 5/7 per entry ------------------
  t0 = Clock::now();
  if (q_ids_.empty()) {
    for (std::size_t i = 0; i < active; ++i) {
      q_ids_.push_back(seccloud::ibc::identity_point(g, fleet_->user_id(i)));
    }
  }
  out.observation.requests.resize(wave.size());
  std::vector<service::UserHandle> users(wave.size());
  std::vector<std::uint64_t> versions(wave.size());
  std::vector<std::uint64_t> audited_before(wave.size());
  for (std::size_t k = 0; k < wave.size(); ++k) {
    const std::size_t i = wave[k];
    FleetRequestObservation& req = out.observation.requests[k];
    req.intent = intent[i];
    for (const auto& sb : requests[i].blocks) {
      Span span{tracer_, "ibc.dv_verify"};
      req.entry_valid.push_back(seccloud::ibc::dv_verify(
          g, q_ids_[i], seccloud::core::block_message_bytes(sb.block), sb.sig.for_da(), da_));
    }
    users[k] = requests[i].user;
    versions[k] = requests[i].version;
    audited_before[k] = svc_->registry().audited_version(users[k]);
  }
  out.request_bytes = seccloud::core::encode_block_list(g, requests[wave[0]].blocks).size();
  if (tracer_ != nullptr) {
    Kept kept;
    for (const std::size_t i : wave) {
      kept.requests.push_back(requests[i]);
      kept.intents.push_back(intent[i]);
      kept.signer.push_back(i);
    }
    kept_.push_back(std::move(kept));
    if (kept_.size() > 4) kept_.erase(kept_.begin());
  }
  out.check_ms = ms_between(t0, Clock::now());

  // --- timed: the submit wave, then run_epoch --------------------------------
  std::vector<Clock::time_point> submitted_at(wave.size());
  out.submit_us.resize(wave.size());
  const double probe_before = host_probe_ms();
  const auto t_wave = Clock::now();
  for (std::size_t k = 0; k < wave.size(); ++k) {
    submitted_at[k] = Clock::now();
    service::Admission admission;
    {
      Span span{tracer_, "service.submit"};
      admission = svc_->submit(std::move(requests[wave[k]]));
    }
    out.submit_us[k] = 1000.0 * ms_between(submitted_at[k], Clock::now());
    if (!admission.accepted) errors.push_back("submit rejected a request of a one-epoch wave");
  }
  ops0 = g.lifetime_counters();
  const auto t_run = Clock::now();
  service::EpochReport report;
  {
    Span span{tracer_, "service.run_epoch"};
    report = svc_->run_epoch();
  }
  const auto t_end = Clock::now();
  out.host_scale = host_scale(probe_before, host_probe_ms());
  out.epoch_ops = g.lifetime_counters() - ops0;
  out.submit_ms = ms_between(t_wave, t_run);
  out.run_epoch_ms = ms_between(t_run, t_end);
  for (const auto& t : submitted_at) out.request_latency_ms.push_back(ms_between(t, t_end));
  out.entries = report.entries;

  // --- the service's verdicts, for the checker --------------------------------
  t0 = Clock::now();
  FleetEpochObservation& obs = out.observation;
  for (std::size_t k = 0; k < wave.size(); ++k) {
    const std::uint64_t after = svc_->registry().audited_version(users[k]);
    obs.requests[k].service_verified = after == versions[k] && audited_before[k] < versions[k];
  }
  obs.drained = report.requests;
  obs.verified = report.verified_requests;
  obs.stale_rejected = report.stale_rejected;
  obs.unkeyed_rejected = report.unkeyed_rejected;
  for (const auto& ref : report.invalid_entries) {
    obs.invalid_entries.emplace_back(ref.request_index, ref.block_index);
  }
  for (const auto& batch : report.results) {
    obs.batches.push_back(
        {batch.entries, batch.verdict.accepted, batch.verdict.bisection.oracle_calls});
  }
  obs.run_epoch_pairings = out.epoch_ops.pairings;
  for (std::size_t i = 0; i < active; ++i) last_intent_[i] = intent[i];

  if (journeys_ != nullptr) {
    // Phase walls are shared by every admitted request of the epoch; the
    // service splits the verify phase into shared check and bisection.
    const auto& ring = journeys_->ring();
    for (auto it = ring.rbegin(); it != ring.rend() && it->epoch == report.epoch; ++it) {
      if (it->verdict != JourneyVerdict::kVerified &&
          it->verdict != JourneyVerdict::kInvalidSignature) {
        continue;
      }
      const auto stage = [&](JourneyStage s) {
        return it->stage_us[static_cast<std::size_t>(s)] / 1000.0;
      };
      out.stage_ms = {stage(JourneyStage::kFilter), stage(JourneyStage::kFlatten),
                      stage(JourneyStage::kAttest), stage(JourneyStage::kVerify),
                      stage(JourneyStage::kBisect), stage(JourneyStage::kVerdict)};
      break;
    }
  }
  out.check_ms += ms_between(t0, Clock::now());
  return out;
}

ReplayInputs FleetBench::replay_inputs() const {
  ReplayInputs in;
  in.group = group_;
  in.verifier = &da_;
  in.attestor = &cs_;
  in.signer = &cs_;
  in.q_cs = cs_.q_id;
  in.q_da = da_.q_id;
  for (const Kept& kept : kept_) {
    // Rebuild the service's flattened stream: requests that pass the filters,
    // in drained order, cut into batches of kBatchEntries.
    const std::size_t first = in.messages.size();
    for (std::size_t r = 0; r < kept.requests.size(); ++r) {
      if (kept.intents[r] == Intent::kStaleReplay || kept.intents[r] == Intent::kUnkeyedProbe) {
        continue;
      }
      for (const auto& sb : kept.requests[r].blocks) {
        in.signer_q_ids.push_back(q_ids_[kept.signer[r]]);
        in.messages.push_back(seccloud::core::block_message_bytes(sb.block));
        in.sigs.push_back(sb.sig.for_da());
      }
    }
    for (std::size_t lo = first; lo < in.messages.size(); lo += kBatchEntries) {
      in.batches.emplace_back(lo, std::min(kBatchEntries, in.messages.size() - lo));
    }
  }
  return in;
}

RunResult run_fleet(const Options& options, bool byzantine, SetupTimer& setup) {
  RunResult res;
  Tracer tracer;
  Tracer* tp = options.trace ? &tracer : nullptr;
  const auto& group = seccloud::pairing::default_group();
  FleetBench bench{group, options.seed, byzantine, tp, &setup};
  setup.finish();

  std::uint64_t drained = 0, blocks = 0, entries = 0, point_muls = 0, epoch_pairings = 0;
  std::uint64_t sign_pairings = 0;
  FleetEpochTally total;
  std::vector<FleetEpoch> measured;
  // Nominal epoch rates on the reference machine (the untimed signing and
  // checks dominate an epoch's wall time).
  const std::size_t planned = measured_rounds(options.seconds, byzantine ? 3.0 : 3.5);
  while (res.rounds < kWarmupRounds + planned) {
    FleetEpoch ep = bench.run_epoch(res.errors);
    const auto tc = Clock::now();
    const FleetEpochTally tally = check_fleet_epoch(ep.observation, res.errors);
    ep.check_ms += ms_between(tc, Clock::now());
    ++res.rounds;
    res.attempted += ep.observation.requests.size();
    res.failed += tally.sigma_swap_accepted;
    total.clean_batches += tally.clean_batches;
    total.rejected_batches += tally.rejected_batches;
    total.clean_batch_pairings += tally.clean_batch_pairings;
    total.rejected_batch_pairings += tally.rejected_batch_pairings;
    res.untimed_generation_s += ep.sign_ms / 1000.0;
    res.untimed_checks_s += ep.check_ms / 1000.0;
    if (res.rounds <= kWarmupRounds) continue;
    drained += ep.observation.drained;
    blocks += ep.blocks_signed;
    entries += ep.entries;
    point_muls += ep.epoch_ops.point_muls;
    epoch_pairings += ep.epoch_ops.pairings;
    sign_pairings += ep.sign_ops.pairings;
    measured.push_back(std::move(ep));
  }

  // Timings at reference host speed (bench.h); the stage walls and the
  // submit calls of the traced run are per-layer figures and stay wall times.
  std::vector<double> epoch_ms, commit_ms, latency_ms, submit_us, request_bytes, scales;
  std::array<std::vector<double>, 6> stages;
  std::vector<double> audit_rate, upload_rate;  // per epoch, 1/s
  for (const FleetEpoch& ep : measured) {
    const double scale = ep.host_scale;
    const double window = (ep.submit_ms + ep.run_epoch_ms) * scale;
    epoch_ms.push_back(window);
    commit_ms.push_back(ep.run_epoch_ms * scale);
    audit_rate.push_back(1000.0 * static_cast<double>(ep.observation.drained) / window);
    upload_rate.push_back(1000.0 * static_cast<double>(ep.blocks_signed) /
                          (ep.sign_ms * ep.sign_scale + ep.submit_ms * scale));
    for (const double ms : ep.request_latency_ms) latency_ms.push_back(ms * scale);
    submit_us.insert(submit_us.end(), ep.submit_us.begin(), ep.submit_us.end());
    request_bytes.push_back(static_cast<double>(ep.request_bytes));
    scales.push_back(scale);
    for (std::size_t s = 0; s < stages.size(); ++s) stages[s].push_back(ep.stage_ms[s]);
  }
  res.host_scale = median(scales);

  // Request latencies within one epoch move together, so their tail leaves
  // ten epochs' worth of requests beyond it, like the epoch tail.
  const std::size_t per_epoch = latency_ms.size() / std::max<std::size_t>(1, epoch_ms.size());
  // Rates are medians of per-epoch rates.
  res.metric("audits_per_s", median(audit_rate), "1/s");
  res.metric("epoch_p50_ms", median(epoch_ms), "ms");
  res.metric("epoch_tail_ms", tail_beyond(epoch_ms, 10), "ms");
  res.metric("upload_blocks_per_s", median(upload_rate), "1/s");
  res.metric("commit_p50_ms", median(commit_ms), "ms");
  res.metric("audit_p50_ms", median(latency_ms), "ms");
  res.metric("audit_tail_ms", tail_beyond(latency_ms, 10 * per_epoch), "ms");
  res.metric("audit_response_bytes", median(request_bytes), "B");
  if (tp == nullptr) return res;

  const auto per = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
  res.layer("service.submit_us", median(submit_us), "us");
  const char* stage_names[] = {"service.filter_ms", "service.flatten_ms", "service.attest_ms",
                               "service.verify_ms", "service.bisect_ms",  "service.verdict_ms"};
  for (std::size_t s = 0; s < stages.size(); ++s) res.layer(stage_names[s], median(stages[s]), "ms");
  res.layer("service.pairings_per_clean_batch",
            per(static_cast<double>(total.clean_batch_pairings),
                static_cast<double>(total.clean_batches)),
            "count");
  res.layer("service.pairings_per_rejected_batch",
            per(static_cast<double>(total.rejected_batch_pairings),
                static_cast<double>(total.rejected_batches)),
            "count");
  res.layer("service.point_muls_per_entry",
            per(static_cast<double>(point_muls), static_cast<double>(entries)), "count");
  res.layer("service.registry_bytes_per_user",
            per(static_cast<double>(bench.service().registry().stats().total_bytes()),
                static_cast<double>(kRegisteredUsers)),
            "B");
  res.layer("service.register_us",
            per(1000.0 * bench.populate_ms(), static_cast<double>(kRegisteredUsers)), "us");
  res.layer("pairing.pairings_per_block_signed",
            per(static_cast<double>(sign_pairings), static_cast<double>(blocks)), "count");
  res.layer("pairing.pairings_per_audit",
            per(static_cast<double>(epoch_pairings), static_cast<double>(drained)), "count");
  // The per-user protocol's core layer is not on the fleet path: 0 = no work.
  res.layer("core.store_us_per_block", 0.0, "us");
  res.layer("core.respond_ms", 0.0, "ms");
  res.layer("core.verify_audit_ms", 0.0, "ms");
  res.layer("core.encode_response_us", 0.0, "us");
  res.layer("core.signature_checks_per_audit", 0.0, "count");
  replay_layers(bench.replay_inputs(), tracer, options.seed, res);
  if (!options.trace_out.empty() && !tracer.write_json(options.trace_out)) {
    res.errors.push_back("cannot write the trace to " + options.trace_out);
  }
  return res;
}

}  // namespace perfbench
