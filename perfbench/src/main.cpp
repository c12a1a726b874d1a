// The repository benchmark's measuring program. run.py builds and drives it:
//   perfbench --workload <fleet_honest|fleet_byzantine|upload_audit> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//   perfbench --self-test
// It prints one JSON object as its last line: the output-check verdict,
// attempted/failed operations, the end-to-end metrics and, in the traced run,
// the per-layer metrics.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "workloads.h"

namespace {

using perfbench::Metric;

void print_metrics(const char* key, const std::vector<Metric>& metrics) {
  std::printf("\"%s\": {", key);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}");
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>] | --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--self-test") return perfbench::self_test();
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string_view{value} == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage();
    }
  }

  // One cold set-up per process, timed from the start of main(): process
  // creation and dynamic loading, a few jittery milliseconds, are left out.
  perfbench::SetupTimer setup{process_start};
  setup.probe();
  perfbench::RunResult result;
  if (options.workload == "fleet_honest" || options.workload == "fleet_byzantine") {
    result = perfbench::run_fleet(options, options.workload == "fleet_byzantine", setup);
  } else if (options.workload == "upload_audit") {
    result = perfbench::run_upload(options, setup);
  } else {
    return usage();
  }
  result.metric("setup_s", setup.seconds(), "s");
  result.metric("peak_rss_mib", perfbench::peak_rss_mib(), "MiB");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"rounds\": %zu, "
              "\"host_scale\": %.4f, \"setup_wall_s\": %.4f, ",
              result.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), result.rounds, result.host_scale,
              setup.wall_s());
  std::printf("\"untimed_generation_s\": %.3f, \"untimed_checks_s\": %.3f, ",
              result.untimed_generation_s, result.untimed_checks_s);
  print_metrics("end_to_end", result.end_to_end);
  std::printf(", ");
  print_metrics("per_layer", result.per_layer);
  // The first errors suffice when one fault repeats every round.
  std::printf(", \"errors\": [");
  for (std::size_t i = 0; i < result.errors.size() && i < 32; ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", json_string(result.errors[i]).c_str());
  }
  std::printf("]}\n");
  return 0;
}
