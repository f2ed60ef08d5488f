/// \file outcome.hpp
/// What one benchmark run reports: attempted/failed counts, the result of
/// the output checks, every metric it measured, and run details.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where spans and the library trace go
};

struct Outcome {
  std::uint64_t attempted = 0;
  /// Operations that errored or failed an output check.
  std::uint64_t failed = 0;
  /// Floor jobs that completed with a FAIL verdict. A verdict is the job's
  /// output, not a failed operation: these count in `fail_frac` only.
  std::uint64_t fail_verdicts = 0;
  /// Output-check failures (each also counts in `failed`); the first few
  /// messages are kept for the run record.
  std::uint64_t check_failures = 0;
  std::vector<std::string> check_messages;
  std::vector<std::pair<std::string, double>> metrics;
  /// Run details as raw JSON values, keyed by name.
  std::vector<std::pair<std::string, std::string>> detail;

  /// Records a failed output check: the run is no longer correct and the
  /// failure counts against the operations attempted.
  void fail_check(const std::string& message) {
    ++check_failures;
    ++failed;
    if (check_messages.size() < 20) check_messages.push_back(message);
  }

  /// Counts one completed floor job: an error fails the operation, a FAIL
  /// verdict is recorded as its output.
  void job(const std::string& error, bool pass) {
    ++attempted;
    if (!error.empty())
      ++failed;
    else if (!pass)
      ++fail_verdicts;
  }

  /// Errored, check-failed and FAIL-verdict operations over those attempted.
  [[nodiscard]] double fail_frac() const {
    return static_cast<double>(failed + fail_verdicts) /
           static_cast<double>(attempted);
  }

  void metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }

  void note(const std::string& name, double value) {
    detail.emplace_back(name, number(value));
  }
  void note(const std::string& name, const std::string& raw_json) {
    detail.emplace_back(name, raw_json);
  }

  void note(const std::string& name, const std::vector<double>& values) {
    std::string raw = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
      raw += (i ? "," : "") + number(values[i]);
    detail.emplace_back(name, raw + "]");
  }

  /// \p v with 17 significant digits, enough to round-trip a double.
  static std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
};

}  // namespace perfbench
