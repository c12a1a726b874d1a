#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <stdexcept>

namespace perfbench {

std::uint32_t Tracer::open(std::string_view name) {
  Record r;
  r.id = static_cast<std::uint32_t>(records_.size() + 1);
  r.parent = stack_.empty() ? 0 : stack_.back();
  r.name = name;
  r.start = Clock::now();
  records_.push_back(r);
  stack_.push_back(r.id);
  return r.id;
}

void Tracer::close(std::uint32_t id) {
  records_[id - 1].end = Clock::now();
  if (stack_.empty() || stack_.back() != id) throw std::logic_error("Tracer: unbalanced span");
  stack_.pop_back();
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point t0 = records_.empty() ? Clock::now() : records_.front().start;
  std::vector<double> cover(records_.size(), 0.0);  // child coverage (µs) per span
  for (const Record& r : records_) {
    if (r.parent != 0) cover[r.parent - 1] += 1000.0 * ms_between(r.start, r.end);
  }
  struct Totals {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string_view, Totals> totals;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const double start_us = 1000.0 * ms_between(t0, r.start);
    const double dur_us = 1000.0 * ms_between(r.start, r.end);
    std::fprintf(f, "  {\"id\": %u, \"parent\": %u, \"name\": \"%.*s\", \"start_us\": %.3f, "
                    "\"end_us\": %.3f}%s\n",
                 r.id, r.parent, static_cast<int>(r.name.size()), r.name.data(), start_us,
                 start_us + dur_us, i + 1 < records_.size() ? "," : "");
    Totals& t = totals[r.name];
    ++t.count;
    t.total_us += dur_us;
    t.self_us += dur_us - cover[i];
  }
  std::fprintf(f, "], \"by_name\": {\n");
  std::size_t k = 0;
  for (const auto& [name, t] : totals) {
    std::fprintf(f, "  \"%.*s\": {\"count\": %zu, \"total_us\": %.3f, \"self_us\": %.3f}%s\n",
                 static_cast<int>(name.size()), name.data(), t.count, t.total_us, t.self_us,
                 ++k < totals.size() ? "," : "");
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double tail_beyond(std::vector<double> samples, std::size_t beyond) {
  if (samples.size() <= beyond) throw std::logic_error("tail_beyond: too few samples");
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() - 1 - beyond];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double host_probe_ms() {
  // Schoolbook 8x8-limb products into freshly allocated vectors: the host's
  // slow phases hit this heap-and-multiplier mix as they hit the library's
  // big-integer arithmetic, while a single dependent multiply chain barely
  // notices them.
  static volatile std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  std::vector<std::uint64_t> a(8), b(8);
  for (std::size_t i = 0; i < 8; ++i) {
    a[i] = 0x9E3779B97F4A7C15ULL * (i + 1 + sink);
    b[i] = a[i] ^ 0x2545F4914F6CDD1DULL;
  }
  for (int it = 0; it < 10'000; ++it) {
    std::vector<std::uint64_t> r(16, 0);
    for (std::size_t i = 0; i < 8; ++i) {
      unsigned __int128 carry = 0;
      for (std::size_t j = 0; j < 8; ++j) {
        const unsigned __int128 p =
            static_cast<unsigned __int128>(a[i]) * b[j] + r[i + j] + static_cast<std::uint64_t>(carry);
        r[i + j] = static_cast<std::uint64_t>(p);
        carry = p >> 64;
      }
      r[i + 8] = static_cast<std::uint64_t>(carry);
    }
    a.assign(r.begin(), r.begin() + 8);
    a[0] |= 1;
  }
  sink = a[0];
  return ms_between(t0, Clock::now());
}

void SetupTimer::probe() {
  const auto t0 = Clock::now();
  probe_total_ms_ += host_probe_ms();
  ++probes_;
  start_ += Clock::now() - t0;  // the probe is not set-up work
}

void SetupTimer::finish() {
  wall_s_ = ms_between(start_, Clock::now()) / 1000.0;
  probe();
}

double SetupTimer::seconds() const noexcept {
  const double scale = kReferenceProbeMs * static_cast<double>(probes_) / probe_total_ms_;
  return ((1000.0 * wall_s_ - unscaled_ms_) * scale + unscaled_ms_) / 1000.0;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t reference_evaluate(seccloud::core::FuncKind kind,
                                 std::span<const std::uint64_t> values) {
  using seccloud::core::FuncKind;
  std::uint64_t acc = 0;
  switch (kind) {
    case FuncKind::kSum:
      for (const std::uint64_t v : values) acc += v;
      return acc;
    case FuncKind::kAverage: {
      unsigned __int128 wide = 0;
      for (const std::uint64_t v : values) wide += v;
      return static_cast<std::uint64_t>(wide / values.size());
    }
    case FuncKind::kMax:
      for (const std::uint64_t v : values) acc = std::max(acc, v);
      return acc;
    case FuncKind::kMin:
      acc = ~std::uint64_t{0};
      for (const std::uint64_t v : values) acc = std::min(acc, v);
      return acc;
    case FuncKind::kDotSelf:
      for (const std::uint64_t v : values) acc += v * v;
      return acc;
    case FuncKind::kPolyEval:
      for (const std::uint64_t v : values) acc = acc * 1099511628211ULL + v;
      return acc;
  }
  throw std::invalid_argument("reference_evaluate: unknown kind");
}

seccloud::hash::Digest reference_root(const seccloud::core::ComputeRequest& request,
                                      std::uint64_t result,
                                      const seccloud::merkle::Proof& path) {
  using seccloud::hash::Digest;
  using seccloud::hash::Sha256;
  std::vector<std::uint8_t> leaf{0x00};
  const auto put = [&leaf](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) leaf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put(result);
  leaf.push_back(static_cast<std::uint8_t>(request.kind));
  put(request.positions.size());
  for (const std::uint64_t p : request.positions) put(p);
  Digest node = Sha256::digest(leaf);
  for (const auto& step : path) {
    std::vector<std::uint8_t> buf{0x01};
    const Digest& left = step.sibling_on_left ? step.sibling : node;
    const Digest& right = step.sibling_on_left ? node : step.sibling;
    buf.insert(buf.end(), left.begin(), left.end());
    buf.insert(buf.end(), right.begin(), right.end());
    node = Sha256::digest(buf);
  }
  return node;
}

std::uint64_t SeedRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
