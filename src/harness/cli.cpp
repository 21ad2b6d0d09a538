#include "harness/cli.hpp"

#include <charconv>
#include <functional>
#include <limits>
#include <vector>

namespace vlcsa::harness {

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(first, last, value, 10);
  if (ec != std::errc{} || ptr != last) return false;
  out = value;
  return true;
}

bool parse_nonnegative_int(const std::string& text, int& out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value)) return false;
  if (value > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) return false;
  out = static_cast<int>(value);
  return true;
}

bool parse_host_port(const std::string& text, std::string& host, int& port) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  int value = 0;
  if (!parse_nonnegative_int(text.substr(colon + 1), value) || value > 65535) return false;
  host = text.substr(0, colon);
  port = value;
  return true;
}

bool match_value_flag(const std::string& arg, const std::string& name,
                      const std::function<bool(const std::string&)>& apply,
                      std::string& error) {
  if (arg.rfind(name + "=", 0) == 0) {
    const std::string value = arg.substr(name.size() + 1);
    if (!apply(value) && error.empty()) {
      error = "invalid value for " + name + ": '" + value + "'";
    }
    return true;
  }
  if (arg == name) {
    error = name + " requires a value (" + name + "=...)";
    return true;
  }
  return false;
}

std::string parse_value_flags(int argc, const char* const* argv,
                              const std::vector<ValueFlag>& flags) {
  std::string error;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool handled = false;
    for (const ValueFlag& flag : flags) {
      if (match_value_flag(arg, flag.name, flag.apply, error)) {
        if (!error.empty()) return error;
        handled = true;
        break;
      }
    }
    if (!handled) return "unknown argument: " + arg;
  }
  return {};
}

namespace {

/// Which front-end mode a value flag belongs to — flags given in the wrong
/// mode are rejected, not silently ignored (e.g. `--design=... --json=f`
/// would otherwise run the netlist path and never write f).
enum class FlagMode { kEither, kBuild, kExperiment };

struct ModeFlag {
  const char* name;
  FlagMode mode;
  std::function<bool(const std::string&)> apply;  // validates and stores
};

}  // namespace

ExplorerParse parse_explorer_args(int argc, const char* const* argv) {
  ExplorerParse parse;
  ExplorerOptions& opt = parse.options;

  const auto store_string = [](std::string& field) {
    return [&field](const std::string& value) {
      if (value.empty()) return false;
      field = value;
      return true;
    };
  };
  const auto store_int = [](int& field) {
    return [&field](const std::string& value) { return parse_nonnegative_int(value, field); };
  };
  const auto store_u64 = [](std::uint64_t& field) {
    return [&field](const std::string& value) { return parse_u64(value, field); };
  };

  const std::vector<ModeFlag> flags = {
      {"--experiment", FlagMode::kEither, store_string(opt.experiment)},
      {"--design", FlagMode::kBuild, store_string(opt.design)},
      {"--width", FlagMode::kBuild, store_int(opt.width)},
      {"--window", FlagMode::kBuild, store_int(opt.window)},
      {"--chain", FlagMode::kBuild, store_int(opt.chain)},
      {"--verilog", FlagMode::kBuild, store_string(opt.verilog_path)},
      {"--samples", FlagMode::kExperiment, store_u64(opt.samples)},
      {"--seed", FlagMode::kExperiment, store_u64(opt.seed)},
      {"--threads", FlagMode::kExperiment, store_int(opt.threads)},
      {"--json", FlagMode::kExperiment, store_string(opt.json_path)},
      {"--batch", FlagMode::kExperiment,
       [&opt](const std::string& value) {
         // "on"/"off" toggles; the canonical EvalPath names ("batched",
         // "scalar" — the service protocol's eval_path spelling) also work.
         EvalPath path = opt.path;
         if (value == "on") {
           path = EvalPath::kBatched;
         } else if (value == "off") {
           path = EvalPath::kScalar;
         } else if (!parse_eval_path(value, path)) {
           return false;
         }
         opt.path = path;
         opt.path_explicit = true;
         return true;
       }},
  };

  std::vector<const ModeFlag*> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      opt.show_help = true;
      continue;
    }
    if (arg == "--list") {
      opt.list_designs = true;
      continue;
    }
    if (arg == "--list-experiments") {
      opt.list_experiments = true;
      continue;
    }
    if (arg == "--profile") {
      opt.profile = true;
      continue;
    }
    bool handled = false;
    for (const ModeFlag& flag : flags) {
      if (match_value_flag(arg, flag.name, flag.apply, parse.error)) {
        if (!parse.error.empty()) return parse;
        seen.push_back(&flag);
        handled = true;
        break;
      }
    }
    if (!handled) {
      parse.error = "unknown argument: " + arg + " (try --help)";
      return parse;
    }
  }

  // Informational modes ignore the rest of the line (they exit early).
  if (opt.show_help || opt.list_designs || opt.list_experiments) return parse;

  // Mode consistency: a flag for the mode that is not running is a mistake.
  const bool experiment_mode = !opt.experiment.empty();
  for (const ModeFlag* flag : seen) {
    if (flag->mode == FlagMode::kBuild && experiment_mode) {
      parse.error = std::string(flag->name) +
                    " only applies when building a design; it has no effect with --experiment";
      return parse;
    }
    if (flag->mode == FlagMode::kExperiment && !experiment_mode) {
      parse.error = std::string(flag->name) + " requires --experiment=NAME";
      return parse;
    }
  }
  if (opt.profile && !experiment_mode) {
    parse.error = "--profile requires --experiment=NAME";
    return parse;
  }
  return parse;
}

}  // namespace vlcsa::harness
