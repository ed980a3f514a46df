/// Documentation that must not drift from the code: DESIGN.md's table of
/// `gis.*` schemas against the observability catalogue, and README's
/// environment-variable tables against the `GISQL_*` knobs the sources
/// actually read and their compiled-in defaults.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <cstdlib>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/system_tables.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/global_system.h"
#include "core/query_log.h"
#include "planner/options.h"
#include "storage/storage_config.h"

namespace gisql {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// `name: col, col, ...` per table, the form both sides are compared in.
using TableColumns = std::map<std::string, std::string>;

TEST(DocSyncTest, DesignSchemaTableMatchesTheCatalogue) {
  // DESIGN.md rows look like "| `gis.x` | a, b, c | one row per ... |".
  TableColumns documented;
  const std::regex row(R"(^\| `(gis\.[a-z_]+)` \| ([a-z0-9_, ]+) \|)");
  std::smatch m;
  for (const std::string& line : Lines(ReadFile(DESIGN_MD))) {
    if (std::regex_search(line, m, row)) documented[m[1]] = m[2];
  }

  GlobalSystem gis;
  const SystemTableProvider& sys = *gis.catalog().system_tables();
  TableColumns catalogued;
  for (const std::string& name : sys.TableNames()) {
    const SchemaPtr schema = *sys.TableSchema(name);
    std::vector<std::string> columns;
    for (const Field& f : schema->fields()) columns.push_back(f.name);
    catalogued[name] = Join(columns, ", ");
  }
  EXPECT_EQ(documented, catalogued);
}

TEST(DocSyncTest, ReadmeDocumentsExactlyTheKnobsTheSourcesRead) {
  std::set<std::string> documented;
  const std::regex row(R"(^\| `(GISQL_[A-Z0-9_]+)`)");
  std::smatch m;
  for (const std::string& line : Lines(ReadFile(README_MD))) {
    if (std::regex_search(line, m, row)) documented.insert(m[1]);
  }

  std::set<std::string> read;
  const std::regex literal(R"re("(GISQL_[A-Z0-9_]+)")re");
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(SRC_DIR)) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    const std::string text = ReadFile(entry.path().string());
    for (std::sregex_iterator it(text.begin(), text.end(), literal), end;
         it != end; ++it) {
      read.insert((*it)[1]);
    }
  }
  EXPECT_FALSE(read.empty());
  EXPECT_EQ(documented, read);
}

TEST(DocSyncTest, ReadmeDefaultsAreTheCompiledDefaults) {
  // Rows look like "| `GISQL_X` | `default` | meaning |"; a default
  // that is not a literal (the kill switch's "unset") has no value to
  // feed back.
  const std::regex knob(R"(^\| `(GISQL_[A-Z0-9_]+)` \| ([^|]*) \|)");
  const std::regex literal(R"(^`([^`]+)`$)");
  std::map<std::string, std::string> defaults;
  std::set<std::string> without_literal;
  std::smatch m;
  std::smatch v;
  for (const std::string& line : Lines(ReadFile(README_MD))) {
    if (!std::regex_search(line, m, knob)) continue;
    const std::string cell = m[2];
    if (std::regex_match(cell, v, literal)) {
      defaults[m[1]] = v[1];
    } else {
      without_literal.insert(m[1]);
    }
  }
  EXPECT_EQ(without_literal, std::set<std::string>{"GISQL_ADVISOR_KILL"});
  ASSERT_FALSE(defaults.empty());

  // Start from a clean environment so only the variable under test is
  // set; restore the caller's values afterwards.
  std::map<std::string, std::optional<std::string>> saved;
  for (const auto& [name, text] : defaults) {
    const char* old = std::getenv(name.c_str());
    saved[name] = old != nullptr ? std::optional<std::string>(old)
                                 : std::nullopt;
    unsetenv(name.c_str());
  }

  // Every knob is read by one of these; with a documented default in
  // the environment, each must still produce its compiled default.
  for (const auto& [name, text] : defaults) {
    const char* n = name.c_str();
    const std::string row = name + "=" + text;
    setenv(n, text.c_str(), 1);
    // A literal the parser rejects would keep the default and prove
    // nothing, so it must parse as a number, a boolean or a log level.
    const bool parses =
        EnvValue<double>(n) || EnvValue<bool>(n) ||
        LogLevelFromEnv(LogLevel::kTrace) == LogLevelFromEnv(LogLevel::kOff);
    EXPECT_TRUE(parses) << row;
    EXPECT_TRUE(PlannerOptions::FromEnv() == PlannerOptions()) << row;
    EXPECT_TRUE(StorageConfig::FromEnv() == StorageConfig()) << row;
    EXPECT_EQ(QueryLog::CapacityFromEnv(), QueryLog::kDefaultCapacity) << row;
    EXPECT_EQ(LogLevelFromEnv(Logger::kDefaultLevel), Logger::kDefaultLevel)
        << row;
    unsetenv(n);
  }

  for (const auto& [name, old] : saved) {
    if (old) setenv(name.c_str(), old->c_str(), 1);
  }
}

}  // namespace
}  // namespace gisql
