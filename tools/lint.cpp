/// \file lint.cpp
/// Command-line front end of the static verification layer (src/verify/):
/// generates a design with the tree's own generators and runs the
/// structural linter over it — the sign-off step a system integrator runs
/// on an emitted TAM before committing tester time (and the tool the CI
/// static-analysis leg runs over every emitted design shape).
///
/// Usage:
///   lint --cas N P1,...,Pk [--wrappers]      lint a composed CAS-BUS
///                                            netlist (--wrappers: the
///                                            complete TAM with P1500
///                                            wrappers)
///   lint --core FFS CHAINS [--seed S]        lint a synthetic scan core,
///                                            including its scan chains
///   lint --soc CORES PROFILE WIDTH STRATEGY  lint a generated SoC's
///        [--seed S] [--instance I]           schedule (branch_bound also
///                                            checks the optimality
///                                            certificate)
/// Common flags: --verbose (every diagnostic), --fanout CEIL (NL006
/// ceiling, 0 disables), --no-opt (lint the raw generator output: the
/// unoptimized CAS decoder carries dead comparator terms, which the linter
/// reports as NL004 warnings — the same cells netlist::optimize() sweeps).
///
/// Exit codes: 0 clean or warnings only, 1 error-grade findings, 2 usage.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/casbus_netlist.hpp"
#include "core/complete_tam.hpp"
#include "explore/branch_bound.hpp"
#include "explore/soc_generator.hpp"
#include "tpg/synthcore.hpp"
#include "verify/netlist_lint.hpp"
#include "verify/schedule_lint.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " (--cas N P1,...,Pk [--wrappers] |\n"
               "        --core FFS CHAINS [--seed S] |\n"
               "        --soc CORES PROFILE WIDTH STRATEGY [--seed S] "
               "[--instance I])\n"
               "       [--verbose] [--fanout CEIL]\n";
  return 2;
}

/// Prints the report and maps it onto the exit code contract.
int finish(const casbus::verify::LintReport& report, bool verbose) {
  using casbus::verify::Severity;
  if (verbose || !report.admissible())
    std::cerr << report.to_string();
  std::cout << report.summary() << " (" << report.error_count()
            << " errors, " << report.warning_count() << " warnings)\n";
  return report.admissible() ? 0 : 1;
}

std::vector<unsigned> parse_ports(const char* arg) {
  std::vector<unsigned> ports;
  std::stringstream ss(arg);
  std::string tok;
  while (std::getline(ss, tok, ','))
    ports.push_back(static_cast<unsigned>(std::atoi(tok.c_str())));
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace casbus;

  enum class Mode { None, Cas, Core, Soc } mode = Mode::None;
  bool wrappers = false;
  bool verbose = false;
  bool optimize = true;
  std::uint64_t seed = 1;
  std::size_t instance = 0;
  verify::NetlistLintConfig netlist_config;
  std::vector<const char*> positional;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--cas") == 0) mode = Mode::Cas;
    else if (std::strcmp(a, "--core") == 0) mode = Mode::Core;
    else if (std::strcmp(a, "--soc") == 0) mode = Mode::Soc;
    else if (std::strcmp(a, "--wrappers") == 0) wrappers = true;
    else if (std::strcmp(a, "--verbose") == 0) verbose = true;
    else if (std::strcmp(a, "--no-opt") == 0) optimize = false;
    else if (std::strcmp(a, "--seed") == 0 && i + 1 < argc)
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    else if (std::strcmp(a, "--instance") == 0 && i + 1 < argc)
      instance = static_cast<std::size_t>(std::atoll(argv[++i]));
    else if (std::strcmp(a, "--fanout") == 0 && i + 1 < argc)
      netlist_config.fanout_ceiling =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    else if (a[0] == '-')
      return usage(argv[0]);
    else
      positional.push_back(a);
  }

  try {
    switch (mode) {
      case Mode::Cas: {
        if (positional.size() != 2) return usage(argv[0]);
        const auto width = static_cast<unsigned>(std::atoi(positional[0]));
        const std::vector<unsigned> ports = parse_ports(positional[1]);
        if (wrappers) {
          tam::CompleteTamSpec spec;
          spec.width = width;
          spec.run_optimizer = optimize;
          for (const unsigned p : ports) {
            p1500::WrapperSpec w;
            w.n_func_in = 2;
            w.n_func_out = 2;
            w.n_chains = p;
            spec.wrappers.push_back(w);
          }
          const tam::GeneratedCompleteTam tam = generate_complete_tam(spec);
          std::cout << "lint: complete TAM N=" << tam.width << ", "
                    << ports.size() << " wrapped cores, "
                    << tam.netlist.cell_count() << " cells\n";
          return finish(verify::lint_netlist(tam.netlist, netlist_config),
                        verbose);
        }
        tam::CasBusNetlistSpec spec;
        spec.width = width;
        spec.ports_per_cas = ports;
        spec.run_optimizer = optimize;
        const tam::GeneratedCasBus bus = tam::generate_casbus_netlist(spec);
        std::cout << "lint: CAS-BUS N=" << bus.width << ", " << ports.size()
                  << " CASes, " << bus.netlist.cell_count() << " cells\n";
        return finish(verify::lint_netlist(bus.netlist, netlist_config),
                      verbose);
      }

      case Mode::Core: {
        if (positional.size() != 2) return usage(argv[0]);
        tpg::SyntheticCoreSpec spec;
        spec.n_flipflops =
            static_cast<std::size_t>(std::atoll(positional[0]));
        spec.n_chains = static_cast<std::size_t>(std::atoll(positional[1]));
        spec.n_gates = 4 * spec.n_flipflops;
        spec.seed = seed;
        const tpg::SyntheticCore core = tpg::make_synthetic_core(spec);
        for (std::size_t c = 0; c < core.chains.size(); ++c)
          netlist_config.scan_chains.push_back(verify::ScanChainSpec{
              "si" + std::to_string(c), "so" + std::to_string(c),
              core.chains[c].size()});
        std::cout << "lint: synthetic core, " << core.netlist().cell_count()
                  << " cells, " << core.chains.size() << " chains\n";
        return finish(verify::lint_netlist(*core.design, netlist_config),
                      verbose);
      }

      case Mode::Soc: {
        if (positional.size() != 4) return usage(argv[0]);
        const auto cores =
            static_cast<std::size_t>(std::atoll(positional[0]));
        const explore::SocProfile profile =
            explore::profile_from_name(positional[1]);
        const auto width = static_cast<unsigned>(std::atoi(positional[2]));
        const sched::Strategy strategy =
            sched::strategy_from_name(positional[3]);
        const explore::GeneratedSoc soc =
            explore::SocGenerator(seed).generate(cores, profile, instance);
        std::cout << "lint: " << soc.name << ", "
                  << soc.cores.size() << " top-level cores, width " << width
                  << ", strategy " << positional[3] << "\n";
        if (strategy == sched::Strategy::BranchBound) {
          const sched::SessionScheduler scheduler(soc.cores, width);
          const explore::BranchBoundResult result =
              explore::BranchBoundScheduler(scheduler).run();
          return finish(
              verify::lint_branch_bound(result, soc.cores, width), verbose);
        }
        const sched::Schedule schedule =
            sched::schedule_with(soc.cores, width, strategy);
        return finish(verify::lint_schedule(schedule, soc.cores, width),
                      verbose);
      }

      case Mode::None:
        return usage(argv[0]);
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage(argv[0]);
}
