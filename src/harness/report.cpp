#include "harness/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "harness/cli.hpp"
#include "harness/engine.hpp"

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

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonObject::add_raw(const std::string& key, std::string rendered) {
  fields_.emplace_back(key, std::move(rendered));
}

void JsonObject::add(const std::string& key, const std::string& value) {
  add_raw(key, "\"" + json_escape(value) + "\"");
}

void JsonObject::add(const std::string& key, const char* value) {
  add(key, std::string(value));
}

void JsonObject::add(const std::string& key, std::uint64_t value) {
  add_raw(key, std::to_string(value));
}

void JsonObject::add(const std::string& key, double value) {
  if (!std::isfinite(value)) {
    add_raw(key, "null");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  add_raw(key, buf);
}

void JsonObject::add(const std::string& key, int value) { add_raw(key, std::to_string(value)); }

void JsonObject::add(const std::string& key, bool value) {
  add_raw(key, value ? "true" : "false");
}

void JsonObject::add_json(const std::string& key, std::string rendered_json) {
  add_raw(key, std::move(rendered_json));
}

void JsonObject::write(std::ostream& os) const {
  os << "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    os << "  \"" << json_escape(fields_[i].first) << "\": " << fields_[i].second;
    os << (i + 1 < fields_.size() ? ",\n" : "\n");
  }
  os << "}\n";
}

std::string JsonObject::render_line() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + json_escape(fields_[i].first) + "\": " + fields_[i].second;
  }
  out += "}";
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

std::string render_run_profile(const RunProfile& profile) {
  JsonObject object;
  object.add("shards", profile.shards);
  object.add("samples", profile.samples);
  object.add("batch_blocks", profile.batch_blocks);
  object.add("batched_samples", profile.batched_samples);
  object.add("scalar_samples", profile.scalar_samples);
  object.add("rng_words", profile.rng_words);
  object.add("fill_seconds", profile.fill_seconds);
  object.add("eval_seconds", profile.eval_seconds);
  object.add("merge_seconds", profile.merge_seconds);
  object.add("threads", profile.threads);
  object.add("lane_words", profile.lane_words);
  object.add("backend", profile.backend);
  return object.render_line();
}

}  // namespace vlcsa::harness
