#include "baselines/wang_auditing.h"

#include <stdexcept>

#include "bigint/modular.h"
#include "hash/hash_to.h"
#include "seccloud/auditor.h"

namespace seccloud::baselines {

WangScheme::WangScheme(const PairingGroup& group)
    : group_(&group), u_(group.hash_to_g1("seccloud.baseline.wang.u", std::string_view{"U"})) {}

WangUserKey WangScheme::keygen(std::string file_name, num::RandomSource& rng) const {
  WangUserKey key;
  key.x = group_->random_scalar(rng);
  key.pk = group_->mul(key.x, group_->generator());
  key.file_name = std::move(file_name);
  return key;
}

WangPublicInfo WangScheme::public_info(const WangUserKey& key) const {
  return {key.pk, u_, key.file_name};
}

Point WangScheme::block_point(const std::string& file_name, std::uint64_t index) const {
  std::vector<std::uint8_t> buf(file_name.begin(), file_name.end());
  for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>(index >> (i * 8)));
  return group_->hash_to_g1("seccloud.baseline.wang.h", buf);
}

Point WangScheme::tag_block(const WangUserKey& key, std::uint64_t index,
                            const BigUint& block) const {
  const Point base = group_->add(block_point(key.file_name, index),
                                 group_->mul(block % group_->order(), u_));
  return group_->mul(key.x, base);
}

std::vector<WangChallengeItem> WangScheme::make_challenge(std::uint64_t n, std::size_t samples,
                                                          num::RandomSource& rng) const {
  const auto indices = core::sample_indices(n, samples, rng);
  std::vector<WangChallengeItem> challenge;
  challenge.reserve(indices.size());
  for (const auto index : indices) {
    challenge.push_back({index, group_->random_scalar(rng)});
  }
  return challenge;
}

WangProof WangScheme::prove(std::span<const WangChallengeItem> challenge,
                            std::span<const BigUint> blocks,
                            std::span<const Point> tags) const {
  WangProof proof;
  proof.mu = BigUint{};
  proof.sigma = Point::at_infinity();
  const BigUint& q = group_->order();
  for (const auto& item : challenge) {
    if (item.index >= blocks.size() || item.index >= tags.size()) {
      throw std::out_of_range("WangScheme::prove: challenged index beyond stored file");
    }
    proof.mu = num::add_mod(proof.mu, num::mul_mod(item.nu, blocks[item.index] % q, q), q);
    proof.sigma = group_->add(proof.sigma, group_->mul(item.nu, tags[item.index]));
  }
  return proof;
}

bool WangScheme::verify(const WangPublicInfo& info,
                        std::span<const WangChallengeItem> challenge,
                        const WangProof& proof) const {
  Point rhs_point = group_->mul(proof.mu, info.u);
  for (const auto& item : challenge) {
    rhs_point = group_->add(rhs_point,
                            group_->mul(item.nu, block_point(info.file_name, item.index)));
  }
  return group_->pair(proof.sigma, group_->generator()) == group_->pair(rhs_point, info.pk);
}

}  // namespace seccloud::baselines
