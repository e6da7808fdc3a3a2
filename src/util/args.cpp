#include "util/args.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "util/check.hpp"

namespace reghd::util {

Args::Args(int argc, const char* const* argv) {
  REGHD_CHECK(argc >= 1 && argv != nullptr, "argv must contain at least the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    REGHD_CHECK(!body.empty(), "bare '--' is not a valid option");
    if (const auto eq = body.find('='); eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` when the next token is not itself an option; otherwise a
    // boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = std::string(argv[i + 1]);
      ++i;
    } else {
      options_[body] = std::nullopt;
    }
  }
}

bool Args::has(const std::string& key) const { return options_.contains(key); }

const std::optional<std::string>* Args::get(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) {
    return nullptr;
  }
  return &it->second;
}

std::optional<std::string> Args::first_unknown(
    std::span<const std::string_view> known) const {
  for (const auto& [key, value] : options_) {
    if (std::ranges::find(known, key) == known.end()) {
      return key;
    }
  }
  return std::nullopt;
}

std::string Args::get_string(const std::string& key, std::string fallback) const {
  const auto v = get(key);
  if (!v || !v->has_value()) {
    return fallback;
  }
  return **v;
}

std::int64_t Args::get_int(const std::string& key, std::int64_t fallback) const {
  const auto v = get(key);
  if (!v || !v->has_value()) {
    return fallback;
  }
  const std::string& s = **v;
  std::int64_t out = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  REGHD_CHECK(ec == std::errc() && ptr == s.data() + s.size(),
              "option --" << key << " expects an integer, got '" << s << "'");
  return out;
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v || !v->has_value()) {
    return fallback;
  }
  const std::string& s = **v;
  try {
    std::size_t pos = 0;
    const double out = std::stod(s, &pos);
    REGHD_CHECK(pos == s.size(), "option --" << key << " expects a number, got '" << s << "'");
    return out;
  } catch (const std::logic_error&) {
    throw std::invalid_argument("option --" + key + " expects a number, got '" + s + "'");
  }
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) {
    return fallback;
  }
  if (!v->has_value()) {
    return true;  // bare flag
  }
  const std::string& s = **v;
  if (s == "true" || s == "1" || s == "yes" || s == "on") {
    return true;
  }
  if (s == "false" || s == "0" || s == "no" || s == "off") {
    return false;
  }
  throw std::invalid_argument("option --" + key + " expects a boolean, got '" + s + "'");
}

}  // namespace reghd::util
