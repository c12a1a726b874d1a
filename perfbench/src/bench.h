// Shared pieces of the repository benchmark: options, the in-memory span
// tracer, sample statistics, metric lists, lifetime op-counter deltas, and the
// benchmark's own reference computations that the output checks compare
// against.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hash/sha256.h"
#include "pairing/group.h"
#include "seccloud/types.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its spans
};

/// A run's length is a fixed number of rounds, so its work depends only on
/// --seconds and --seed: `seconds` times the workload's nominal round rate,
/// measured once on the reference machine, and at least kMinRounds. Every
/// measured round enters the statistics, so each tail is the same percentile
/// in every run of one length.
inline constexpr std::size_t kMinRounds = 40;
inline std::size_t measured_rounds(double seconds, double nominal_rounds_per_s) {
  const auto rounds = static_cast<std::size_t>(seconds * nominal_rounds_per_s + 0.5);
  return rounds < kMinRounds ? kMinRounds : rounds;
}
/// Rounds run (and checked) before timing starts, so first-touch costs such
/// as lazily built tables stay out of the samples.
inline constexpr std::size_t kWarmupRounds = 1;

// --- host-speed scale ---------------------------------------------------------
//
// The reference machine shares its physical cores with other tenants. For tens
// of seconds at a time the library's arithmetic runs 1.5-1.8x slower, and the
// benchmark's own multi-limb probe below slows by nearly the same factor. So
// every timing is reported at reference host speed: its wall time times
// kReferenceProbeMs over the mean of the probes timed right before and right
// after it. The probe does not call the library, so a change to the program
// moves the scaled timings as it moves the wall times.

/// Wall time (ms) of the fixed probe loop.
double host_probe_ms();

/// The probe's wall time on the reference machine when its core is not
/// shared (a 4-vCPU KVM guest on an Intel Xeon, model 207).
inline constexpr double kReferenceProbeMs = 1.0;

/// Factor that turns a wall time into a time at reference host speed, from
/// the probes bracketing it.
inline double host_scale(double probe_before_ms, double probe_after_ms) {
  return 2.0 * kReferenceProbeMs / (probe_before_ms + probe_after_ms);
}

/// Times the process's one cold set-up, from the start of main(), at
/// reference host speed. The workloads call probe() between set-up steps, so
/// that a set-up of seconds is scaled by the host speed over its whole length;
/// the probes' own time is left out of the set-up time.
class SetupTimer {
 public:
  explicit SetupTimer(Clock::time_point start) : start_(start) {}

  void probe();
  /// Leaves `ms` of memory-bound set-up work unscaled: filling the fleet's
  /// 10^6-identity registry took 385-490 ms whether the probe ran at 0.9 or
  /// at 1.8 ms, so scaling it by the probe would add noise, not remove it.
  void unscaled(double ms) noexcept { unscaled_ms_ += ms; }
  /// Stops the clock, then takes the last probe.
  void finish();

  double wall_s() const noexcept { return wall_s_; }
  /// Set-up time at reference host speed (s).
  double seconds() const noexcept;

 private:
  Clock::time_point start_;
  double probe_total_ms_ = 0.0;
  std::size_t probes_ = 0;
  double unscaled_ms_ = 0.0;
  double wall_s_ = 0.0;
};

// --- span tracer ------------------------------------------------------------

/// Spans recorded by the benchmark around its calls into one layer: name,
/// start, end, and the span that caused it. Kept in memory, written out once
/// when the run ends. Single-threaded, like the benchmark itself.
class Tracer {
 public:
  struct Record {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::string_view name;     ///< string literal
    Clock::time_point start{};
    Clock::time_point end{};
  };

  std::uint32_t open(std::string_view name);
  void close(std::uint32_t id);

  /// Writes the spans as JSON (one object per span) plus per-name counts,
  /// total time and self time: a span's duration minus the part its child
  /// spans cover.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Record> records_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a null tracer (the untraced run) records nothing.
class Span {
 public:
  Span(Tracer* tracer, std::string_view name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

// --- statistics and metrics -------------------------------------------------

double median(std::vector<double> samples);
/// The highest percentile that leaves `beyond` samples above it: the
/// (beyond + 1)-th largest sample.
double tail_beyond(std::vector<double> samples, std::size_t beyond);
double mean(const std::vector<double>& samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::vector<std::string> errors;  ///< empty = every output check passed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< traced run only
  double untimed_generation_s = 0.0;
  double untimed_checks_s = 0.0;
  std::size_t rounds = 0;
  double host_scale = 0.0;  ///< median over the measured rounds

  void metric(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Peak resident set of this process (MiB).
double peak_rss_mib();

// --- the benchmark's own reference computations -------------------------------

/// Evaluates one sub-task function over operand values, written from the
/// function definitions (Section V-C-1) rather than taken from the library.
std::uint64_t reference_evaluate(seccloud::core::FuncKind kind,
                                 std::span<const std::uint64_t> values);

/// Rebuilds a Merkle root from a result (y ‖ kind ‖ count ‖ positions leaf),
/// its position vector and the returned audit path, with domain-separated
/// SHA-256 (0x00 leaf, 0x01 interior), independently of merkle::MerkleTree.
seccloud::hash::Digest reference_root(const seccloud::core::ComputeRequest& request,
                                      std::uint64_t result,
                                      const seccloud::merkle::Proof& path);

/// splitmix64 — the benchmark's own seeded generator for input choices.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
