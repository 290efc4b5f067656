// corpus_mutator — seeded corpus damage + self-check harness.
//
// Reads a directory of log files, applies each requested mutation class
// (see sdchecker/corpus_mutator.hpp) and runs the analyzer over every
// mutant.  The built-in self-check fails (exit 1) if the analyzer
// crashes on any mutant, if the identity mutation is not event-for-event
// identical to the baseline, if a destructive class does not surface
// its expected diagnostic kind, or if follow mode tailing the mutant as
// it is written does not drain to the batch analysis byte for byte.
// With --out, each mutated corpus is also written to
// <out>/<class-name>/ for replay.
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "logging/log_bundle.hpp"
#include "sdchecker/corpus_mutator.hpp"

namespace {

int usage(std::ostream& out, int code) {
  out << "usage: corpus_mutator <log_dir> (--all-classes | --class NAME)\n"
         "                      [--seed S] [--out DIR]\n"
         "\n"
         "classes:";
  for (const auto cls : sdc::checker::all_mutation_classes()) {
    out << ' ' << sdc::checker::mutation_class_name(cls);
  }
  out << "\n"
         "\n"
         "exit status: 0 all self-checks passed, 1 a mutant crashed the\n"
         "analyzer, missed its expected diagnostic or broke follow/batch\n"
         "parity, 2 usage error\n";
  return code;
}

int usage_error(const std::string& what) {
  std::cerr << "corpus_mutator: " << what << "\n\n";
  return usage(std::cerr, 2);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::optional<std::string> log_dir;
  std::optional<std::string> out_dir;
  std::uint64_t seed = 42;
  std::vector<sdc::checker::MutationClass> classes;
  bool all_classes = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&](const char* flag) -> std::optional<std::string> {
      if (i + 1 >= args.size()) {
        usage_error(std::string(flag) + " requires a value");
        return std::nullopt;
      }
      return args[++i];
    };
    if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (arg == "--all-classes") {
      all_classes = true;
    } else if (arg == "--class") {
      const auto name = value("--class");
      if (!name) return 2;
      const auto cls = sdc::checker::mutation_class_from_name(*name);
      if (!cls) return usage_error("unknown mutation class '" + *name + "'");
      classes.push_back(*cls);
    } else if (arg == "--seed") {
      const auto text = value("--seed");
      if (!text) return 2;
      try {
        seed = std::stoull(*text);
      } catch (...) {
        return usage_error("--seed wants an integer, got '" + *text + "'");
      }
    } else if (arg == "--out") {
      const auto dir = value("--out");
      if (!dir) return 2;
      out_dir = *dir;
    } else if (!arg.empty() && arg.front() == '-') {
      return usage_error("unknown flag '" + arg + "'");
    } else if (!log_dir) {
      log_dir = arg;
    } else {
      return usage_error("unexpected argument '" + arg + "'");
    }
  }

  if (!log_dir) return usage_error("missing <log_dir>");
  if (all_classes && !classes.empty()) {
    return usage_error("--all-classes and --class are mutually exclusive");
  }
  if (!all_classes && classes.empty()) {
    return usage_error("pick --all-classes or at least one --class NAME");
  }
  if (all_classes) classes = sdc::checker::all_mutation_classes();

  sdc::logging::LogBundle base;
  std::vector<sdc::logging::Diagnostic> io_diagnostics;
  try {
    base = sdc::logging::LogBundle::read_from_directory(*log_dir,
                                                        &io_diagnostics);
  } catch (const std::exception& e) {
    std::cerr << "corpus_mutator: cannot read '" << *log_dir
              << "': " << e.what() << '\n';
    return 1;
  }
  for (const auto& diagnostic : io_diagnostics) {
    std::cerr << "corpus_mutator: note: "
              << sdc::logging::render_diagnostic(diagnostic) << '\n';
  }

  if (out_dir) {
    try {
      for (const auto cls : classes) {
        const auto mutated = sdc::checker::apply_mutation(base, cls, seed);
        mutated.write_to_directory(
            std::filesystem::path(*out_dir) /
            std::string(sdc::checker::mutation_class_name(cls)));
      }
    } catch (const std::exception& e) {
      std::cerr << "corpus_mutator: cannot write mutants: " << e.what()
                << '\n';
      return 1;
    }
  }

  const auto results = sdc::checker::fuzz_corpus(base, seed, classes);
  std::cout << "seed " << seed << ", " << base.stream_count()
            << " stream(s), " << base.total_lines() << " line(s)\n"
            << sdc::checker::render_fuzz_report(results);
  for (const auto& result : results) {
    if (!result.ok) {
      std::cout << "self-check FAILED\n";
      return 1;
    }
  }
  std::cout << "self-check passed: " << results.size() << " class(es)\n";
  return 0;
}
