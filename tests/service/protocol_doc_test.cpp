// Documentation contract for the service protocol: DESIGN.md's protocol
// reference must list exactly the request types ExperimentService actually
// dispatches.  The canonical line in DESIGN.md looks like
//
//   Requests: `run`, `run-batch`, ... `shutdown`.
//
// and this test diffs its backticked names against
// ExperimentService::request_names() both ways, so adding a request without
// documenting it (or documenting one that does not exist) fails CI.  Each
// request's `### \`name\`` subsection must also document exactly the fields
// its request-table row declares (ExperimentService::request_fields()), and
// every counter row (cache.hpp, metrics.hpp) must be named in its request's
// subsection and, by its Prometheus family, in `metrics-prom`'s.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "service/service.hpp"

namespace vlcsa::service {
namespace {

std::filesystem::path design_md_path() {
  return std::filesystem::path(__FILE__).parent_path() / ".." / ".." / "DESIGN.md";
}

/// The backticked names on the first line of DESIGN.md starting "Requests:".
std::vector<std::string> documented_request_names() {
  std::ifstream in(design_md_path());
  EXPECT_TRUE(in.is_open()) << "cannot open " << design_md_path();
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Requests: ", 0) != 0) continue;
    std::vector<std::string> names;
    std::size_t pos = 0;
    while ((pos = line.find('`', pos)) != std::string::npos) {
      const std::size_t end = line.find('`', pos + 1);
      if (end == std::string::npos) break;
      names.push_back(line.substr(pos + 1, end - pos - 1));
      pos = end + 1;
    }
    return names;
  }
  return {};
}

TEST(ProtocolDoc, DesignMdListsExactlyTheDispatchedRequests) {
  const std::vector<std::string> documented = documented_request_names();
  ASSERT_FALSE(documented.empty())
      << "DESIGN.md has no 'Requests: ...' line with backticked request names";
  const std::vector<std::string> dispatched = ExperimentService::request_names();

  const std::set<std::string> documented_set(documented.begin(), documented.end());
  const std::set<std::string> dispatched_set(dispatched.begin(), dispatched.end());
  EXPECT_EQ(documented_set, dispatched_set)
      << "DESIGN.md's request list and ExperimentService's dispatch table differ";
  // No duplicates in the documentation line either.
  EXPECT_EQ(documented.size(), documented_set.size());
}

TEST(ProtocolDoc, EveryDispatchedRequestHasAFieldTableHeading) {
  // Each request type gets its own `### \`name\`` subsection in DESIGN.md's
  // protocol reference (field table + errors).
  std::ifstream in(design_md_path());
  ASSERT_TRUE(in.is_open());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  for (const std::string& name : ExperimentService::request_names()) {
    EXPECT_NE(contents.find("### `" + name + "`"), std::string::npos)
        << "DESIGN.md lacks a '### `" << name << "`' protocol subsection";
  }
}

/// The text of DESIGN.md's `### \`name\`` subsection, up to the next
/// `### ` heading; empty when there is none.
std::string request_subsection(const std::string& contents, const std::string& name) {
  const std::string heading = "### `" + name + "`\n";
  const std::size_t begin = contents.find(heading);
  if (begin == std::string::npos) return {};
  const std::size_t end = contents.find("\n### ", begin + heading.size());
  return contents.substr(begin + heading.size(),
                         end == std::string::npos ? std::string::npos
                                                  : end + 1 - begin - heading.size());
}

/// The backticked first-column names of the subsection's first table, in
/// order (a row like "| `samples` | integer | ... |").
std::vector<std::string> field_table_names(const std::string& subsection) {
  std::vector<std::string> names;
  std::istringstream lines(subsection);
  bool in_table = false;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("|", 0) != 0) {
      if (in_table) break;
      continue;
    }
    in_table = true;
    if (line.rfind("| `", 0) != 0) continue;  // header and separator rows
    const std::size_t end = line.find('`', 3);
    if (end != std::string::npos) names.push_back(line.substr(3, end - 3));
  }
  return names;
}

TEST(ProtocolDoc, EveryRequestDocumentsExactlyItsTableFields) {
  // A request with fields lists `request` plus exactly its row's fields, in
  // row order, in its field table; a request with none says so instead —
  // so a field added to the code but not to the docs (or the reverse)
  // fails here.
  std::ifstream in(design_md_path());
  ASSERT_TRUE(in.is_open());
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  for (const std::string& name : ExperimentService::request_names()) {
    const std::string subsection = request_subsection(contents, name);
    ASSERT_FALSE(subsection.empty()) << "DESIGN.md lacks a '### `" << name << "`' subsection";
    const std::vector<std::string> documented = field_table_names(subsection);
    const auto fields = ExperimentService::request_fields(name);
    if (fields.empty()) {
      EXPECT_NE(subsection.find("Takes no fields beyond `request`"), std::string::npos)
          << "DESIGN.md's `" << name << "` subsection must say it takes no fields";
      EXPECT_TRUE(documented.empty())
          << "DESIGN.md documents fields for `" << name << "`, which takes none";
      continue;
    }
    std::vector<std::string> expected = {"request"};
    expected.insert(expected.end(), fields.begin(), fields.end());
    EXPECT_EQ(documented, expected)
        << "DESIGN.md's `" << name << "` field table differs from its request-table row";
  }
}

/// Whether `text` names `word` whole: not as part of a longer identifier.
bool mentions(const std::string& text, std::string_view word) {
  const auto identifier = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  for (std::size_t pos = text.find(word); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    const std::size_t end = pos + word.size();
    if ((pos == 0 || !identifier(text[pos - 1])) &&
        (end == text.size() || !identifier(text[end]))) {
      return true;
    }
  }
  return false;
}

TEST(ProtocolDoc, EveryCounterRowIsDocumented) {
  // Each counter row's JSON key is named in its request's subsection
  // (cache-stats or metrics), and its Prometheus family in metrics-prom's.
  std::ifstream in(design_md_path());
  ASSERT_TRUE(in.is_open());
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  const std::string prom = request_subsection(contents, "metrics-prom");
  const auto check = [&](const char* request, const auto& rows) {
    const std::string section = request_subsection(contents, request);
    for (const auto& row : rows) {
      EXPECT_TRUE(mentions(section, row.json))
          << "DESIGN.md's `" << request << "` subsection does not name `" << row.json << "`";
      EXPECT_TRUE(mentions(prom, row.family))
          << "DESIGN.md's `metrics-prom` subsection does not name `" << row.family << "`";
    }
  };
  check("cache-stats", kCacheStatsRows);
  check("metrics", kMetricsCounterRows);
}

TEST(ProtocolDoc, TraceEnvelopeFieldsAreDocumented) {
  // The request-envelope observability fields ("trace", "trace_id") and the
  // echoed reply fields ride every request type, so they are documented once
  // in the protocol reference rather than per request — but they must be
  // documented.
  std::ifstream in(design_md_path());
  ASSERT_TRUE(in.is_open());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  for (const char* needle : {"`trace`", "`trace_id`", "`spans`"}) {
    EXPECT_NE(contents.find(needle), std::string::npos)
        << "DESIGN.md does not document the " << needle << " envelope field";
  }
}

}  // namespace
}  // namespace vlcsa::service
