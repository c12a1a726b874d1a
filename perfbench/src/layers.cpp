#include "layers.h"

#include <algorithm>
#include <string_view>

#include "bigint/rng.h"
#include "merkle/tree.h"
#include "pairing/precompute.h"

namespace perfbench {

namespace {

using seccloud::core::Bytes;
using seccloud::pairing::Point;
namespace ibc = seccloud::ibc;
namespace merkle = seccloud::merkle;

/// Times `calls` invocations of `body` inside one span named `name`; returns
/// the wall time per call in µs.
template <typename Body>
double per_call_us(Tracer& tracer, std::string_view name, std::size_t calls, Body&& body) {
  const auto t0 = Clock::now();
  {
    Span span{&tracer, name};
    for (std::size_t i = 0; i < calls; ++i) body(i);
  }
  return 1000.0 * ms_between(t0, Clock::now()) / static_cast<double>(calls);
}

/// Defeats dead-code elimination of replayed results.
volatile std::uint64_t g_sink = 0;

void sink(const seccloud::num::BigUint& x) { g_sink = g_sink + (x.is_zero() ? 1 : 0); }
void sink(bool b) { g_sink = g_sink + (b ? 1 : 0); }

}  // namespace

void replay_layers(const ReplayInputs& in, Tracer& tracer, std::uint64_t seed,
                   RunResult& result) {
  const auto& g = *in.group;
  const std::size_t n = in.messages.size();
  const auto entry = [&](std::size_t i) -> std::size_t { return i % n; };
  seccloud::num::Xoshiro256 rng{seed ^ 0x7265706c6179ULL};
  Span root{&tracer, "replay"};

  // --- ibc: the run's own batches -------------------------------------------
  {
    Span span{&tracer, "replay.ibc.batches"};
    std::vector<double> cross_ms, batch_ms, isolate_ms, oracle_calls;
    for (std::size_t b = 0; b < in.batches.size(); ++b) {
      const auto [first, size] = in.batches[b];
      std::vector<ibc::BatchEntry> entries;
      for (std::size_t i = first; i < first + size; ++i) {
        entries.push_back({in.signer_q_ids[i], in.messages[i], &in.sigs[i]});
      }
      Bytes attest_msg{'p', 'e', 'r', 'f', 'b', 'e', 'n', 'c', 'h'};
      attest_msg.push_back(static_cast<std::uint8_t>(b));
      const ibc::DvSignature attestation = ibc::dv_transform(
          g, ibc::ibs_sign(g, *in.attestor, attest_msg, rng), in.verifier->q_id);

      auto t0 = Clock::now();
      bool clean = false;
      {
        Span s{&tracer, "ibc.dv_batch_verify"};
        clean = ibc::dv_batch_verify(g, entries, *in.verifier);
      }
      const double verify_ms = ms_between(t0, Clock::now());
      if (clean) {
        batch_ms.push_back(verify_ms);
        t0 = Clock::now();
        {
          Span s{&tracer, "ibc.dv_cross_user_verify"};
          sink(ibc::dv_cross_user_verify(g, entries, *in.verifier, in.attestor->q_id, attest_msg,
                                         attestation)
                   .accepted);
        }
        cross_ms.push_back(ms_between(t0, Clock::now()));
      } else {
        ibc::BisectionStats stats;
        t0 = Clock::now();
        {
          Span s{&tracer, "ibc.dv_batch_isolate"};
          sink(ibc::dv_batch_isolate(g, entries, *in.verifier, &stats).empty());
        }
        isolate_ms.push_back(ms_between(t0, Clock::now()));
        oracle_calls.push_back(static_cast<double>(stats.oracle_calls));
      }
    }
    result.layer("ibc.cross_user_verify_ms", median(cross_ms), "ms");
    result.layer("ibc.batch_verify_ms", median(batch_ms), "ms");
    result.layer("ibc.isolate_ms", median(isolate_ms), "ms");
    result.layer("ibc.oracle_calls_per_rejected_batch", mean(oracle_calls), "count");
  }

  // --- ibc: signing, Eq. 5/7, tag hash ---------------------------------------
  result.layer("ibc.sign_us_per_block",
               per_call_us(tracer, "replay.ibc.sign", 16,
                           [&](std::size_t i) {
                             const auto sig = ibc::ibs_sign(g, *in.signer, in.messages[entry(i)], rng);
                             sink(ibc::dv_transform(g, sig, in.q_cs).sigma.a);
                             sink(ibc::dv_transform(g, sig, in.q_da).sigma.a);
                           }),
               "us");
  result.layer("ibc.dv_verify_us",
               per_call_us(tracer, "replay.ibc.dv_verify", 32,
                           [&](std::size_t i) {
                             const std::size_t e = entry(i);
                             sink(ibc::dv_verify(g, in.signer_q_ids[e], in.messages[e], in.sigs[e],
                                                 *in.verifier));
                           }),
               "us");
  result.layer("ibc.tag_hash_us",
               per_call_us(tracer, "replay.ibc.tag_hash", 512,
                           [&](std::size_t i) {
                             const std::size_t e = entry(i);
                             sink(ibc::tag_hash(g, in.sigs[e].u, in.messages[e]));
                           }),
               "us");

  // --- pairing ----------------------------------------------------------------
  const Point& sk = in.verifier->secret;
  result.layer("pairing.pair_us",
               per_call_us(tracer, "replay.pairing.pair", 32,
                           [&](std::size_t i) { sink(g.pair(in.sigs[entry(i)].u, sk).a); }),
               "us");
  {
    const seccloud::pairing::FixedPairing fixed{g, sk};
    result.layer("pairing.fixed_pair_us",
                 per_call_us(tracer, "replay.pairing.fixed_pair", 32,
                             [&](std::size_t i) { sink(fixed.pair_with(in.sigs[entry(i)].u).a); }),
                 "us");
  }
  {
    seccloud::pairing::Gt acc = g.gt_one();
    result.layer("pairing.gt_mul_us",
                 per_call_us(tracer, "replay.pairing.gt_mul", 2048,
                             [&](std::size_t i) { acc = g.gt_mul(acc, in.sigs[entry(i)].sigma); }),
                 "us");
    sink(acc.a);
  }
  {
    std::vector<seccloud::num::BigUint> exps;
    for (std::size_t i = 0; i < 16; ++i) exps.push_back(g.random_scalar(rng));
    result.layer("pairing.gt_pow_us",
                 per_call_us(tracer, "replay.pairing.gt_pow", exps.size(),
                             [&](std::size_t i) { sink(g.gt_pow(in.sigs[entry(i)].sigma, exps[i]).a); }),
                 "us");
  }

  // --- ec ---------------------------------------------------------------------
  std::vector<seccloud::num::BigUint> tags;
  for (std::size_t i = 0; i < 32; ++i) {
    tags.push_back(ibc::tag_hash(g, in.sigs[entry(i)].u, in.messages[entry(i)]));
  }
  result.layer("ec.point_mul_us",
               per_call_us(tracer, "replay.ec.point_mul", tags.size(),
                           [&](std::size_t i) { sink(g.mul(tags[i], in.signer_q_ids[entry(i)]).x); }),
               "us");
  result.layer("ec.point_add_us",
               per_call_us(tracer, "replay.ec.point_add", 256,
                           [&](std::size_t i) {
                             sink(g.add(in.sigs[entry(i)].u, in.sigs[entry(i + 1)].u).x);
                           }),
               "us");
  {
    std::vector<Point> points;
    for (std::size_t i = 0; i < tags.size(); ++i) points.push_back(in.signer_q_ids[entry(i)]);
    const double per_msm_us =
        per_call_us(tracer, "replay.ec.multi_mul", 2,
                    [&](std::size_t) { sink(g.curve().multi_mul(tags, points).x); });
    result.layer("ec.multi_mul_us_per_term", per_msm_us / static_cast<double>(tags.size()), "us");
  }
  result.layer("ec.hash_to_point_us",
               per_call_us(tracer, "replay.ec.hash_to_point", 32,
                           [&](std::size_t i) {
                             sink(g.hash_to_g1("perfbench.h1", in.messages[entry(i)]).x);
                           }),
               "us");

  // --- field ------------------------------------------------------------------
  {
    const auto& fp = g.fp();
    std::vector<seccloud::num::BigUint> xs;
    for (std::size_t i = 0; i < 64; ++i) xs.push_back(in.sigs[entry(i)].u.x);
    seccloud::num::BigUint acc = xs[0];
    const std::size_t muls = 20000;
    result.layer("field.fp_mul_ns",
                 1000.0 * per_call_us(tracer, "replay.field.fp_mul", muls,
                                      [&](std::size_t i) { acc = fp.mul(acc, xs[i % xs.size()]); }),
                 "ns");
    sink(acc);
    result.layer("field.fp_inv_us",
                 per_call_us(tracer, "replay.field.fp_inv", 512,
                             [&](std::size_t i) { sink(fp.inv(xs[i % xs.size()]).has_value()); }),
                 "us");
  }

  // --- hash -------------------------------------------------------------------
  {
    Bytes buffer;
    while (buffer.size() < (1u << 20)) {
      const Bytes& m = in.messages[entry(buffer.size())];
      buffer.insert(buffer.end(), m.begin(), m.end());
      const auto u = g.curve().serialize(in.sigs[entry(buffer.size())].u);
      buffer.insert(buffer.end(), u.begin(), u.end());
    }
    const std::size_t reps = 8;
    const double us = per_call_us(tracer, "replay.hash.sha256", reps, [&](std::size_t) {
      g_sink = g_sink + seccloud::hash::Sha256::digest(buffer)[0];
    });
    result.layer("hash.sha256_mib_per_s",
                 static_cast<double>(buffer.size()) / (1024.0 * 1024.0) / (us * 1e-6), "MiB/s");
  }

  // --- merkle -----------------------------------------------------------------
  {
    std::vector<merkle::Digest> leaves;
    for (std::size_t i = 0; i < 512; ++i) {
      leaves.push_back(merkle::MerkleTree::leaf_hash(in.messages[entry(i)]));
    }
    const std::size_t builds = 16;
    result.layer("merkle.build_ms",
                 per_call_us(tracer, "replay.merkle.build", builds,
                             [&](std::size_t) {
                               g_sink = g_sink + merkle::MerkleTree::build(leaves).root()[0];
                             }) /
                     1000.0,
                 "ms");
    const merkle::MerkleTree tree = merkle::MerkleTree::build(leaves);
    std::vector<merkle::Proof> proofs;
    for (std::size_t i = 0; i < leaves.size(); ++i) proofs.push_back(tree.prove(i));
    result.layer("merkle.proof_verify_us",
                 per_call_us(tracer, "replay.merkle.proof_verify", leaves.size(),
                             [&](std::size_t i) {
                               sink(merkle::MerkleTree::verify(tree.root(), leaves[i], proofs[i]));
                             }),
                 "us");
  }
}

}  // namespace perfbench
