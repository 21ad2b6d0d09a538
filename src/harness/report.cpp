#include "harness/report.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "harness/cli.hpp"
#include "harness/engine.hpp"
#include "harness/json.hpp"

namespace vlcsa::harness {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::add_row: cell count mismatch");
  }
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << row[c];
      os << std::string(width[c] - row[c].size(), ' ');
    }
    os << " |\n";
  };
  print_row(headers_);
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

void append_json_escaped(std::string& out, std::string_view text) {
  // Unescaped runs go in with one append each; only the bytes JSON needs
  // rewritten are handled one at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf], kHex[c & 0xf]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_json_escaped(out, text);
  return out;
}

void JsonObject::add_raw(std::string_view key, std::string rendered) {
  auto& field = fields_.emplace_back(std::string(), std::move(rendered));
  append_json_escaped(field.first, key);
}

void JsonObject::add(std::string_view key, std::string_view value) {
  std::string rendered;
  rendered.reserve(value.size() + 2);
  rendered += '"';
  append_json_escaped(rendered, value);
  rendered += '"';
  add_raw(key, std::move(rendered));
}

void JsonObject::add(std::string_view key, const char* value) {
  add(key, std::string_view(value));
}

void JsonObject::add(std::string_view key, std::uint64_t value) {
  add_raw(key, std::to_string(value));
}

void JsonObject::add(std::string_view key, double value) {
  if (!std::isfinite(value)) {
    add_raw(key, "null");
    return;
  }
  // to_chars with general format and a precision is specified as printf's
  // "%.17g" — the same bytes without the format-string parse.
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  add_raw(key, std::string(buf, end.ptr));
}

void JsonObject::add(std::string_view key, int value) { add_raw(key, std::to_string(value)); }

void JsonObject::add(std::string_view key, bool value) {
  add_raw(key, value ? "true" : "false");
}

void JsonObject::add_json(std::string_view key, std::string rendered_json) {
  add_raw(key, std::move(rendered_json));
}

void JsonObject::write(std::ostream& os) const {
  os << "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    os << "  \"" << fields_[i].first << "\": " << fields_[i].second;
    os << (i + 1 < fields_.size() ? ",\n" : "\n");
  }
  os << "}\n";
}

std::string JsonObject::render_line() const {
  // {"k": v, ...}: 4 bytes of quotes and ": " per field, 2 of ", " between.
  std::size_t size = 2;
  for (const auto& [key, value] : fields_) size += key.size() + value.size() + 6;
  std::string out;
  out.reserve(size);
  out += '{';
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ", ";
    out += '"';
    out += fields_[i].first;
    out += "\": ";
    out += fields_[i].second;
  }
  out += '}';
  return out;
}

std::string fmt_pct(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string fmt_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string fmt_delta_pct(double value, double baseline) {
  if (baseline == 0.0) return "n/a";
  const double delta = (value - baseline) / baseline * 100.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", delta);
  return buf;
}

std::string fmt_sci(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2e", value);
  return buf;
}

BenchArgs BenchArgs::parse(int argc, char** argv, std::uint64_t default_samples) {
  BenchArgs args;
  args.samples = default_samples;
  const std::vector<ValueFlag> flags = {
      {"--samples", [&args](const std::string& v) { return parse_u64(v, args.samples); }},
      {"--seed", [&args](const std::string& v) { return parse_u64(v, args.seed); }},
      {"--threads",
       [&args](const std::string& v) { return parse_nonnegative_int(v, args.threads); }},
  };
  const std::string error = parse_value_flags(argc, const_cast<const char* const*>(argv), flags);
  if (!error.empty()) {
    throw std::invalid_argument(error + " (expected --samples=N, --seed=S or --threads=T)");
  }
  return args;
}

void print_banner(std::ostream& os, const std::string& artifact, const std::string& description) {
  os << "==== " << artifact << " ====\n" << description << "\n\n";
}

namespace {

/// A rendered profile's fields in render order: render_run_profile writes
/// exactly these and parse_run_profile requires exactly these.
template <typename Profile, typename Visit>
void visit_profile_fields(Profile& profile, Visit&& visit) {
  visit("shards", profile.shards);
  visit("samples", profile.samples);
  visit("batch_blocks", profile.batch_blocks);
  visit("batched_samples", profile.batched_samples);
  visit("scalar_samples", profile.scalar_samples);
  visit("rng_words", profile.rng_words);
  visit("fill_seconds", profile.fill_seconds);
  visit("eval_seconds", profile.eval_seconds);
  visit("merge_seconds", profile.merge_seconds);
  visit("threads", profile.threads);
  visit("lane_words", profile.lane_words);
  visit("backend", profile.backend);
}

bool read_profile_field(const JsonValue& field, std::uint64_t& out) { return field.to_u64(out); }

bool read_profile_field(const JsonValue& field, int& out) {
  std::uint64_t value = 0;
  if (!field.to_u64(value) || value > static_cast<std::uint64_t>(INT_MAX)) return false;
  out = static_cast<int>(value);
  return true;
}

bool read_profile_field(const JsonValue& field, double& out) {
  if (field.kind() != JsonValue::Kind::kNumber) return false;
  out = field.as_double();
  return true;
}

bool read_profile_field(const JsonValue& field, std::string& out) {
  if (field.kind() != JsonValue::Kind::kString) return false;
  out = field.as_string();
  return true;
}

}  // namespace

std::string render_run_profile(const RunProfile& profile) {
  JsonObject object;
  visit_profile_fields(profile,
                       [&](const char* key, const auto& value) { object.add(key, value); });
  return object.render_line();
}

std::optional<RunProfile> parse_run_profile(const JsonValue& value) {
  if (value.kind() != JsonValue::Kind::kObject) return std::nullopt;
  RunProfile profile;
  std::size_t fields = 0;
  bool ok = true;
  visit_profile_fields(profile, [&](const char* key, auto& slot) {
    const JsonValue* field = value.find(key);
    ok = ok && field != nullptr && read_profile_field(*field, slot);
    ++fields;
  });
  if (!ok || value.members().size() != fields) return std::nullopt;
  return profile;
}

}  // namespace vlcsa::harness
