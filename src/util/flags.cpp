#include "util/flags.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "util/parse.hpp"

namespace diners::util {

Flags& Flags::define(std::string name, std::string default_value,
                     std::string help) {
  entries_[std::move(name)] = Entry{std::move(default_value), std::move(help)};
  return *this;
}

bool Flags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    if (body == "help") {
      print_usage(argv[0]);
      return false;
    }
    std::optional<std::string> value;
    if (auto eq = body.find('='); eq != std::string::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
    }
    bool negated = false;
    if (!entries_.count(body) && body.rfind("no-", 0) == 0 &&
        entries_.count(body.substr(3))) {
      body = body.substr(3);
      negated = true;
    }
    auto it = entries_.find(body);
    if (it == entries_.end()) {
      std::cerr << "unknown flag: --" << body << "\n";
      print_usage(argv[0]);
      return false;
    }
    if (negated) {
      it->second.value = "false";
    } else if (value) {
      it->second.value = *value;
    } else if (it->second.value == "true" || it->second.value == "false") {
      it->second.value = "true";  // bare boolean flag
    } else if (i + 1 < argc) {
      it->second.value = argv[++i];
    } else {
      std::cerr << "flag --" << body << " expects a value\n";
      return false;
    }
  }
  return true;
}

std::string Flags::str(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) throw std::out_of_range("undefined flag: " + name);
  return it->second.value;
}

std::int64_t Flags::i64(const std::string& name) const {
  try {
    return parse_i64(str(name));
  } catch (const std::invalid_argument& err) {
    throw FlagError("bad value for --" + name + ": " + err.what());
  }
}

double Flags::f64(const std::string& name) const {
  try {
    return parse_f64(str(name));
  } catch (const std::invalid_argument& err) {
    throw FlagError("bad value for --" + name + ": " + err.what());
  }
}

std::uint64_t Flags::u64(const std::string& name, std::uint64_t lo,
                         std::uint64_t hi) const {
  try {
    return parse_u64(str(name), lo, hi, "--" + name);
  } catch (const std::invalid_argument& err) {
    throw FlagError(err.what());
  }
}

std::uint32_t Flags::u32(const std::string& name, std::uint32_t lo,
                         std::uint32_t hi) const {
  return static_cast<std::uint32_t>(u64(name, lo, hi));
}

bool Flags::flag(const std::string& name) const {
  const std::string v = str(name);
  return v == "true" || v == "1" || v == "yes";
}

void Flags::print_usage(const std::string& program) const {
  std::cerr << "usage: " << program << " [flags]\n";
  for (const auto& [name, entry] : entries_) {
    std::cerr << "  --" << name << " (default: " << entry.value << ")  "
              << entry.help << "\n";
  }
}

int run_tool(int (*run)(const Flags&), const Flags& flags) {
  try {
    return run(flags);
  } catch (const UsageError& err) {
    std::cerr << "error: " << err.what() << "\n"
              << "run with --help for usage\n";
    return kUsageError;
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << "\n";
    return 1;
  }
}

double probability(const Flags& flags, const std::string& name) {
  const double p = flags.f64(name);
  if (p < 0.0 || p > 1.0) {
    throw UsageError("--" + name + ": " + flags.str(name) +
                     " is not a probability in [0, 1]");
  }
  return p;
}

void require_writable(const std::string& path, const std::string& message) {
  if (path.empty()) return;
  const bool existed = static_cast<bool>(std::ifstream(path));
  std::ofstream probe(path, std::ios::app);
  if (!probe) throw UsageError(message + path);
  probe.close();
  if (!existed) std::remove(path.c_str());
}

}  // namespace diners::util
