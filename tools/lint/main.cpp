// tbp_lint CLI.
//
//   tbp_lint --root <repo> [--format=text|github|sarif] [--werror]
//            [subdirs...]
//   tbp_lint --list-rules
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error — stable for CI use.
#include <iostream>
#include <string>
#include <vector>

#include "lint/driver.hpp"

namespace {

void print_usage(std::ostream& out) {
  out << "usage: tbp_lint [--root DIR] [--format=text|github|sarif]\n"
         "                [--werror] [--list-rules] [subdir...]\n"
         "\n"
         "Static determinism / lock / layering checks for the tbpoint\n"
         "tree.  Default subdirs: src tools bench tests\n"
         "(relative to --root).  Suppress a finding inline with\n"
         "  // tbp-lint: allow(<rule>) -- <justification>\n";
}

void list_rules(std::ostream& out) {
  for (const tbp_lint::RuleInfo& info : tbp_lint::rule_registry()) {
    const char* severity =
        info.severity == tbp_lint::Severity::kError ? "error" : "warning";
    out << info.id << "  [" << severity << "]  " << info.summary << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  tbp_lint::LintOptions options;
  options.root = ".";
  tbp_lint::OutputFormat format = tbp_lint::OutputFormat::kText;
  bool werror = false;
  std::vector<std::string> subdirs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    }
    if (arg == "--list-rules") {
      list_rules(std::cout);
      return 0;
    }
    if (arg == "--werror") {
      werror = true;
      continue;
    }
    if (arg == "--format=text") {
      format = tbp_lint::OutputFormat::kText;
      continue;
    }
    if (arg == "--format=github") {
      format = tbp_lint::OutputFormat::kGithub;
      continue;
    }
    if (arg == "--format=sarif") {
      format = tbp_lint::OutputFormat::kSarif;
      continue;
    }
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::cerr << "tbp-lint: --root needs a directory\n";
        return 2;
      }
      options.root = argv[++i];
      continue;
    }
    if (arg.rfind("--root=", 0) == 0) {
      options.root = arg.substr(7);
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "tbp-lint: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    }
    subdirs.push_back(arg);
  }
  if (!subdirs.empty()) options.subdirs = subdirs;

  const tbp_lint::LintResult result = tbp_lint::run_lint(options);
  tbp_lint::print_report(result, format, std::cout, std::cerr);
  return tbp_lint::lint_exit_code(result, werror);
}
