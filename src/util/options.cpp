#include "util/options.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace swbpbc::util {
namespace {

std::string env_name(const std::string& name) {
  std::string out = "SWBPBC_";
  for (char ch : name) {
    out += (ch == '-') ? '_'
                       : static_cast<char>(std::toupper(
                             static_cast<unsigned char>(ch)));
  }
  return out;
}

}  // namespace

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      values_[arg] = "";  // bare flag (use --key=value to pass a value)
    }
  }
}

Expected<Options> Options::parse(
    int argc, char** argv, std::initializer_list<std::string_view> known) {
  Options opt(argc, argv);
  for (const auto& [name, value] : opt.values_) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    std::string accepted;
    for (const std::string_view k : known) {
      accepted += accepted.empty() ? "--" : ", --";
      accepted += k;
    }
    return Status::invalid_input("unknown option --" + name +
                                 " (accepted: " + accepted + ")");
  }
  return opt;
}

Options Options::parse_or_exit(
    int argc, char** argv, std::initializer_list<std::string_view> known) {
  Expected<Options> opt = parse(argc, argv, known);
  if (!opt.has_value()) {
    std::fprintf(stderr, "%s\n", opt.status().to_string().c_str());
    std::exit(2);
  }
  return std::move(opt).value();
}

std::string Options::raw(const std::string& name, bool& found) const {
  if (auto it = values_.find(name); it != values_.end()) {
    found = true;
    return it->second;
  }
  if (const char* env = std::getenv(env_name(name).c_str())) {
    found = true;
    return env;
  }
  found = false;
  return {};
}

bool Options::has(const std::string& name) const {
  bool found = false;
  (void)raw(name, found);
  return found;
}

std::string Options::get(const std::string& name,
                         const std::string& fallback) const {
  bool found = false;
  std::string v = raw(name, found);
  return found ? v : fallback;
}

std::int64_t Options::get_int(const std::string& name,
                              std::int64_t fallback) const {
  bool found = false;
  const std::string v = raw(name, found);
  if (!found || v.empty()) return fallback;
  return std::strtoll(v.c_str(), nullptr, 10);
}

double Options::get_double(const std::string& name, double fallback) const {
  bool found = false;
  const std::string v = raw(name, found);
  if (!found || v.empty()) return fallback;
  return std::strtod(v.c_str(), nullptr);
}

bool Options::get_bool(const std::string& name, bool fallback) const {
  bool found = false;
  std::string v = raw(name, found);
  if (!found) return fallback;
  if (v.empty()) return true;  // bare --flag
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

std::vector<std::int64_t> Options::get_int_list(
    const std::string& name, std::vector<std::int64_t> fallback) const {
  bool found = false;
  const std::string v = raw(name, found);
  if (!found || v.empty()) return fallback;
  std::vector<std::int64_t> out;
  std::size_t pos = 0;
  while (pos < v.size()) {
    const std::size_t comma = v.find(',', pos);
    const std::string tok =
        v.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) out.push_back(std::strtoll(tok.c_str(), nullptr, 10));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace swbpbc::util
