/// Documentation that must not drift from the code: DESIGN.md's table of
/// `gis.*` schemas against the observability catalogue, and README's
/// environment-variable tables against the `GISQL_*` knobs the sources
/// actually read.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/system_tables.h"
#include "common/string_util.h"
#include "core/global_system.h"

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

}  // namespace
}  // namespace gisql
