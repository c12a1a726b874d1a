// upload_audit: the paper's per-user protocol through SecCloudSystem — sign and
// upload (Protocol II), execute and commit (Protocol III), Algorithm-1 audits.
#include "seccloud/codec.h"
#include "workloads.h"

namespace perfbench {

namespace core = seccloud::core;

UploadBench::UploadBench(const seccloud::pairing::PairingGroup& group, std::uint64_t seed,
                         Tracer* tracer, SetupTimer* setup)
    : group_(&group), tracer_(tracer), rng_(seed) {
  sys_ = std::make_unique<core::SecCloudSystem>(group, seed);
  for (std::size_t u = 0; u < kUploadUsers; ++u) {
    if (setup != nullptr && u % 256 == 0) setup->probe();
    users_.push_back(sys_->register_user("user-" + std::to_string(u) + "@perfbench"));
  }
  stored_.resize(kUploadUsers);
}

UploadRound UploadBench::run_round(std::vector<std::string>& errors) {
  const auto& g = *group_;
  UploadRound out;
  const std::size_t u = round_ % users_.size();
  const std::uint64_t epoch = round_++;
  const core::SystemUser& user = users_[u];
  const auto& q_user = user.key().q_id;
  core::SystemServer& server = sys_->cloud_server();
  const core::SystemAgency& agency = sys_->agency();

  // --- upload: the client signs, the server screens and stores ---------------
  std::vector<core::DataBlock> blocks;
  for (std::size_t j = 0; j < kBlocksPerUpload; ++j) {
    // Block indices are global in the server's store: one range per user.
    const std::uint64_t index = (std::uint64_t{u + 1} << 40) | (stored_[u].size() + j);
    const std::uint64_t value = rng_.next();
    values_[index] = value;
    blocks.push_back(core::DataBlock::from_value(index, value));
  }
  // Each timed step is scaled by the host probes right before and after it;
  // one step's after-probe is the next one's before-probe.
  double probe = host_probe_ms();
  const auto next_scale = [&probe] {
    const double after = host_probe_ms();
    const double scale = host_scale(probe, after);
    probe = after;
    return scale;
  };
  auto ops0 = g.lifetime_counters();
  auto t0 = Clock::now();
  std::vector<core::SignedBlock> signed_blocks;
  {
    Span span{tracer_, "core.sign_blocks"};
    signed_blocks = user.sign_blocks(std::move(blocks));
  }
  const double sign_ms = ms_between(t0, Clock::now());
  out.sign_ops = g.lifetime_counters() - ops0;
  if (tracer_ != nullptr) {
    last_upload_ = signed_blocks;
    last_user_ = u;
  }
  t0 = Clock::now();
  bool stored = false;
  {
    Span span{tracer_, "core.store"};
    stored = server.store(q_user, std::move(signed_blocks));
  }
  out.store_ms = ms_between(t0, Clock::now());
  out.upload_ms = sign_ms + out.store_ms;
  out.upload_scale = next_scale();
  out.blocks = kBlocksPerUpload;
  if (!stored) errors.push_back("store refused an honest upload");
  for (std::size_t j = 0; j < kBlocksPerUpload; ++j) {
    stored_[u].push_back((std::uint64_t{u + 1} << 40) | stored_[u].size());
  }

  // --- compute and commit ---------------------------------------------------------
  core::ComputationTask task;
  for (std::size_t r = 0; r < kTaskRequests; ++r) {
    core::ComputeRequest request;
    request.kind = static_cast<core::FuncKind>(rng_.below(6));
    for (std::size_t p = 0; p < kOperands; ++p) {
      request.positions.push_back(stored_[u][rng_.below(stored_[u].size())]);
    }
    task.requests.push_back(std::move(request));
  }
  t0 = Clock::now();
  core::SystemServer::ExecutedTask executed;
  {
    Span span{tracer_, "core.compute"};
    executed = server.compute(q_user, task);
  }
  out.compute_ms = ms_between(t0, Clock::now());
  out.compute_scale = next_scale();
  const core::Commitment& commitment = executed.commitment;

  // --- Algorithm-1 audits at t = 33 ---------------------------------------------
  for (std::size_t a = 0; a < kAuditsPerRound; ++a) {
    ops0 = g.lifetime_counters();
    t0 = Clock::now();
    core::AuditReport report;
    {
      Span span{tracer_, "core.audit"};
      report = agency.audit(user, server, executed.task_id, task, commitment, kAuditSamples, epoch);
    }
    out.audit_ms.push_back(ms_between(t0, Clock::now()));
    out.audit_scale.push_back(next_scale());
    out.audit_ops += g.lifetime_counters() - ops0;
    if (!report.accepted) errors.push_back("an honest audit was rejected");
  }

  // --- untimed checks --------------------------------------------------------------
  t0 = Clock::now();
  check_commitment(task, values_, commitment.results, errors);
  last_task_ = task;
  last_results_ = commitment.results;

  const core::AuditChallenge challenge =
      agency.challenge(task.requests.size(), kAuditSamples, user.delegate_audit(epoch + 16));
  auto tp = Clock::now();
  core::AuditResponse response;
  {
    Span span{tracer_, "core.respond"};
    response = server.respond(q_user, executed.task_id, challenge, epoch);
  }
  out.respond_ms = ms_between(tp, Clock::now());
  tp = Clock::now();
  {
    Span span{tracer_, "core.encode_response"};
    out.response_bytes = core::encode_response(g, response).size();
  }
  out.encode_response_us = 1000.0 * ms_between(tp, Clock::now());
  out.signature_checks = 1;  // Sig_CS(R)
  for (const auto& item : response.items) {
    out.signature_checks += item.inputs.size();
    if (item.request_index >= task.requests.size() ||
        reference_root(task.requests[item.request_index], item.result, item.path) !=
            commitment.root) {
      errors.push_back("a returned Merkle path does not rebuild the committed root");
    }
  }
  if (tracer_ != nullptr) {
    tp = Clock::now();
    core::AuditReport report;
    {
      Span span{tracer_, "core.verify_computation_audit"};
      report = core::verify_computation_audit(g, q_user, server.key().q_id, task, commitment,
                                              challenge, response, agency.key(),
                                              core::SignatureCheckMode::kBatch);
    }
    out.verify_audit_ms = ms_between(tp, Clock::now());
    if (!report.accepted) errors.push_back("replayed honest audit rejected");
  }

  // A commitment over one altered sampled result must fail the audit.
  std::vector<std::uint64_t> altered = commitment.results;
  altered[challenge.sample_indices.at(0)] += 1;
  const core::TaskExecution cheat{task, altered};
  const core::Commitment cheat_commitment = core::make_commitment(
      g, cheat, server.key(), agency.key().q_id, q_user, sys_->rng());
  const core::BlockLookup lookup = [&server](std::uint64_t index) { return server.find(index); };
  const core::AuditResponse cheat_response =
      core::respond_to_audit(g, cheat, challenge, lookup, q_user, server.key(), epoch);
  const core::AuditReport cheat_report = core::verify_computation_audit(
      g, q_user, server.key().q_id, task, cheat_commitment, challenge, cheat_response,
      agency.key(), core::SignatureCheckMode::kBatch);
  if (cheat_report.accepted) errors.push_back("an audit accepted an altered committed result");
  out.check_ms = ms_between(t0, Clock::now());
  return out;
}

ReplayInputs UploadBench::replay_inputs() const {
  // The store's ingest screening: Σ designated to the cloud server.
  const auto& server_key = sys_->cloud_server().key();
  ReplayInputs in;
  in.group = group_;
  in.verifier = &server_key;
  in.attestor = &sys_->agency().key();
  in.signer = &users_[last_user_].key();
  in.q_cs = server_key.q_id;
  in.q_da = sys_->agency().key().q_id;
  for (const auto& sb : last_upload_) {
    in.signer_q_ids.push_back(users_[last_user_].key().q_id);
    in.messages.push_back(core::block_message_bytes(sb.block));
    in.sigs.push_back(sb.sig.for_cs());
  }
  in.batches.emplace_back(0, in.messages.size());
  return in;
}

RunResult run_upload(const Options& options, SetupTimer& setup) {
  RunResult res;
  Tracer tracer;
  Tracer* tp = options.trace ? &tracer : nullptr;
  UploadBench bench{seccloud::pairing::default_group(), options.seed, tp, &setup};
  setup.finish();

  std::vector<double> round_ms, commit_ms, audit_ms, response_bytes;
  std::vector<double> respond_ms, verify_ms, encode_us, signature_checks;
  std::vector<double> upload_rate;  // per round, 1/s
  double store_ms = 0.0;
  std::uint64_t blocks = 0, sign_pairings = 0, audit_pairings = 0;
  std::vector<UploadRound> measured;
  // Nominal round rate on the reference machine.
  const std::size_t planned = measured_rounds(options.seconds, 5.0);
  while (res.rounds < kWarmupRounds + planned) {
    UploadRound r = bench.run_round(res.errors);
    ++res.rounds;
    res.attempted += r.blocks + 1 + r.audit_ms.size();  // uploads, the commit, the audits
    res.untimed_checks_s += r.check_ms / 1000.0;
    if (res.rounds <= kWarmupRounds) continue;
    blocks += r.blocks;
    sign_pairings += r.sign_ops.pairings;
    audit_pairings += r.audit_ops.pairings;
    measured.push_back(std::move(r));
  }

  // Timings at reference host speed (bench.h); the traced run's per-layer
  // figures stay wall times.
  std::vector<double> scales;
  for (const UploadRound& r : measured) {
    double round = r.upload_ms * r.upload_scale + r.compute_ms * r.compute_scale;
    for (std::size_t a = 0; a < r.audit_ms.size(); ++a) {
      round += r.audit_ms[a] * r.audit_scale[a];
      audit_ms.push_back(r.audit_ms[a] * r.audit_scale[a]);
    }
    round_ms.push_back(round);
    commit_ms.push_back(r.compute_ms * r.compute_scale);
    response_bytes.push_back(static_cast<double>(r.response_bytes));
    upload_rate.push_back(1000.0 * static_cast<double>(r.blocks) / (r.upload_ms * r.upload_scale));
    scales.push_back(r.upload_scale);
    store_ms += r.store_ms;
    respond_ms.push_back(r.respond_ms);
    verify_ms.push_back(r.verify_audit_ms);
    encode_us.push_back(r.encode_response_us);
    signature_checks.push_back(static_cast<double>(r.signature_checks));
  }
  res.host_scale = median(scales);

  // Rates are medians of per-audit and per-upload rates.
  res.metric("audits_per_s", 1000.0 / median(audit_ms), "1/s");
  res.metric("epoch_p50_ms", median(round_ms), "ms");
  res.metric("epoch_tail_ms", tail_beyond(round_ms, 10), "ms");
  res.metric("upload_blocks_per_s", median(upload_rate), "1/s");
  res.metric("commit_p50_ms", median(commit_ms), "ms");
  res.metric("audit_p50_ms", median(audit_ms), "ms");
  // Ten rounds' worth of audits beyond the tail, as on the fleet.
  res.metric("audit_tail_ms", tail_beyond(audit_ms, 10 * kAuditsPerRound), "ms");
  res.metric("audit_response_bytes", median(response_bytes), "B");
  if (tp == nullptr) return res;

  // The fleet service is not on this path: 0 = no work.
  res.layer("service.submit_us", 0.0, "us");
  for (const char* name : {"service.filter_ms", "service.flatten_ms", "service.attest_ms",
                           "service.verify_ms", "service.bisect_ms", "service.verdict_ms"}) {
    res.layer(name, 0.0, "ms");
  }
  for (const char* name : {"service.pairings_per_clean_batch", "service.pairings_per_rejected_batch",
                           "service.point_muls_per_entry"}) {
    res.layer(name, 0.0, "count");
  }
  res.layer("service.registry_bytes_per_user", 0.0, "B");
  res.layer("service.register_us", 0.0, "us");
  const double audits = static_cast<double>(kAuditsPerRound * measured.size());
  res.layer("pairing.pairings_per_block_signed",
            static_cast<double>(sign_pairings) / static_cast<double>(blocks), "count");
  res.layer("pairing.pairings_per_audit", static_cast<double>(audit_pairings) / audits, "count");
  res.layer("core.store_us_per_block", 1000.0 * store_ms / static_cast<double>(blocks), "us");
  res.layer("core.respond_ms", median(respond_ms), "ms");
  res.layer("core.verify_audit_ms", median(verify_ms), "ms");
  res.layer("core.encode_response_us", median(encode_us), "us");
  res.layer("core.signature_checks_per_audit", median(signature_checks), "count");
  replay_layers(bench.replay_inputs(), tracer, options.seed, res);
  if (!options.trace_out.empty() && !tracer.write_json(options.trace_out)) {
    res.errors.push_back("cannot write the trace to " + options.trace_out);
  }
  return res;
}

}  // namespace perfbench
