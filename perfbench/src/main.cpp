// memcim benchmark executable.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--span-file <path>]
//
// Untraced (--trace 0): repeats set-up + the workload for --seconds of
// host time, checks every output and prints the end-to-end metrics.
// Traced (--trace 1): rounds of the workload with timers around the
// calls into each module, replaying each run layer by layer (see
// serve.cpp and batch.cpp), and prints the per-layer metrics.  Either way
// the last stdout line is one JSON object; the exit code is 0 only when
// every check passed.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/parallel.h"
#include "perfbench.h"

namespace {

using perfbench::Outcome;
using perfbench::RunOptions;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload serve_add_heavy|serve_search_light|"
               "batch_sharded --seed N --seconds S --trace 0|1 "
               "[--span-file PATH]\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  try {
    out = std::stoull(s);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_result(const Outcome& out) {
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (i > 0) line += ", ";
    line += "\"" + json_escape(m.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, n)) return usage("bad --seed " + value);
      options.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n == 0 || n > 600)
        return usage("bad --seconds " + value);
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--span-file") {
      options.span_file = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");
  const bool serve = perfbench::is_serve_workload(options.workload);
  if (!serve && options.workload != "batch_sharded")
    return usage("unknown workload " + options.workload);

  // Fixed glibc malloc thresholds: every repetition reuses one heap
  // instead of mapping and unmapping its large buffers afresh, which
  // otherwise makes set-up time differ from process to process.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  const char* env_threads = std::getenv("MEMCIM_THREADS");
  std::cout << "perfbench: workload " << options.workload << ", seed "
            << options.seed << ", " << options.seconds << " s, trace "
            << (options.trace ? 1 : 0) << ", thread pool "
            << memcim::parallel_threads() << " (MEMCIM_THREADS="
            << (env_threads != nullptr ? env_threads : "unset") << ")\n";

  Outcome out;
  try {
    if (serve)
      out = options.trace ? perfbench::trace_serve(options)
                          : perfbench::run_serve(options);
    else
      out = options.trace ? perfbench::trace_batch(options)
                          : perfbench::run_batch(options);
  } catch (const std::exception& e) {
    out.fail(std::string("exception: ") + e.what());
  }
  for (const perfbench::Metric& m : out.metrics)
    if (!std::isfinite(m.value)) out.fail("metric " + m.name + " is not finite");
  if (out.attempted == 0) out.fail("no item was attempted");
  for (const std::string& note : out.notes) std::cout << note << "\n";
  print_result(out);
  // Join the pool's workers before static destructors run.
  memcim::set_parallel_threads(1);
  return out.correct ? 0 : 1;
}
