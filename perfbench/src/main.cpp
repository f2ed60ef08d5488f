/// \file main.cpp
/// perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
///
/// Runs one workload and prints, as its last line, one JSON object:
/// {"correct", "attempted", "failed", "metrics": {name: value},
///  "detail": {...}, "checks": [...]}. With --trace 1 it also runs a
/// traced half and writes its spans to DIR. perfbench/run.py builds this
/// program, selects the metrics BENCHMARK.json declares and adds the run
/// metadata.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "outcome.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Outcome;

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
      if (!(options.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.workload.empty()) throw std::invalid_argument("--workload is required");
  return options;
}

void print(const Outcome& out) {
  std::string line = "{\"correct\":";
  line += out.check_failures == 0 ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(out.attempted);
  line += ",\"failed\":" + std::to_string(out.failed);
  line += ",\"metrics\":{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i)
    line += (i ? "," : "") + quoted(out.metrics[i].first) + ":" +
            Outcome::number(out.metrics[i].second);
  line += "},\"detail\":{";
  for (std::size_t i = 0; i < out.detail.size(); ++i)
    line += (i ? "," : "") + quoted(out.detail[i].first) + ":" +
            out.detail[i].second;
  line += "},\"checks\":[";
  for (std::size_t i = 0; i < out.check_messages.size(); ++i)
    line += (i ? "," : "") + quoted(out.check_messages[i]);
  line += "]}";
  std::cout << line << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    Outcome out;
    if (options.workload == "floor-cold")
      out = perfbench::run_floor_cold(options);
    else if (options.workload == "floor-repeat")
      out = perfbench::run_floor_repeat(options);
    else if (options.workload == "sched-search")
      out = perfbench::run_sched_search(options);
    else
      throw std::invalid_argument("unknown workload " + options.workload);
    out.note("build_type", quoted(PERFBENCH_BUILD_TYPE));
    out.note("check_failures", static_cast<double>(out.check_failures));
    out.note("fail_verdicts", static_cast<double>(out.fail_verdicts));
    print(out);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
