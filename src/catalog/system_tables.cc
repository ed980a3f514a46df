#include "catalog/system_tables.h"

#include "common/string_util.h"

namespace gisql {

bool IsSystemTableName(const std::string& name) {
  const std::string lower = ToLower(name);
  const std::string prefix = kSystemTablePrefix;
  return lower.size() > prefix.size() &&
         lower.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace gisql
