/// \file catalogue.h
/// \brief The observability catalogue's mechanism: a column declared
/// once per snapshot struct, and the three renderers that turn a column
/// list plus a row source into a `gis.*` table, Prometheus series, or an
/// incident-JSON section.
///
/// A Column carries everything every surface needs to know about one
/// observable fact: its SQL name and type, how to read it from a row,
/// and optionally the Prometheus family it exports as and whether
/// incident snapshots include it. Which rows a surface shows (every
/// catalog source, only observed ones, the governor's single row) is a
/// property of the row source handed to a renderer, never of a column.
/// The declarations themselves live in core/system_catalog.cc.
///
/// Value formats: SQL keeps the Value; Prometheus prints integers
/// plainly, booleans as 0/1, and enums as their integer code; JSON
/// prints enums by name and booleans as true/false. Doubles print with
/// `%.17g` in both (JsonNum), as the registries' own samples do, so
/// every exported double round-trips exactly.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "obs/json.h"
#include "types/row.h"
#include "types/schema.h"
#include "types/value.h"

namespace gisql {

namespace catalogue_internal {

template <typename V>
Value ToValue(const V& v) {
  if constexpr (std::is_same_v<V, bool>) {
    return Value::Bool(v);
  } else if constexpr (std::is_integral_v<V>) {
    return Value::Int(static_cast<int64_t>(v));
  } else if constexpr (std::is_floating_point_v<V>) {
    return Value::Double(v);
  } else {
    return Value::String(v);
  }
}

/// Prometheus (`json` false) or JSON text of a column value.
inline std::string Text(const Value& v, bool json) {
  switch (v.type()) {
    case TypeId::kString:
      return JsonStr(v.AsString());
    case TypeId::kBool:
      if (json) return v.AsBool() ? "true" : "false";
      return v.AsBool() ? "1" : "0";
    case TypeId::kDouble:
      return JsonNum(v.AsDouble());
    default:
      return std::to_string(v.AsInt());
  }
}

}  // namespace catalogue_internal

/// \brief One observable fact of rows of type `R`; declared with Col().
template <typename R>
struct Column {
  using Reader = std::function<Value(const R&)>;

  /// \brief A computed column.
  Column(std::string name, TypeId type, Reader read)
      : name(std::move(name)), type(type), read(std::move(read)) {}

  /// \brief A column of a base of `R`, read from `R` (a PoolRow shows
  /// every BufferPoolStats column).
  template <typename B>
    requires(std::is_base_of_v<B, R> && !std::is_same_v<B, R>)
  Column(const Column<B>& c)  // NOLINT(runtime/explicit)
      : name(c.name),
        type(c.type),
        read(c.read),
        family(c.family),
        family_type(c.family_type),
        sample(c.sample ? Reader(c.sample) : nullptr),
        json(c.json),
        label(c.label) {}

  /// \name Export flags, chained onto a declaration
  /// @{
  Column Counter(std::string f) && { return Export(std::move(f), "counter"); }
  Column Gauge(std::string f) && { return Export(std::move(f), "gauge"); }
  Column Json() && { return Flag(&Column::json); }
  Column Label() && { return Flag(&Column::label); }
  /// @}

  std::string name;  ///< gis.* column and incident-JSON field name
  TypeId type;
  Reader read;
  /// Prometheus family, without the exporter's prefix ("" = not
  /// exported), and its type.
  std::string family;
  const char* family_type = "";
  Reader sample;      ///< Prometheus value where it differs from `read`
  bool json = false;  ///< included in incident snapshots
  /// Labels every Prometheus sample of its list (`source="hq"`).
  bool label = false;

 private:
  Column Export(std::string prometheus_name, const char* prometheus_type) {
    family = std::move(prometheus_name);
    family_type = prometheus_type;
    return std::move(*this);
  }
  Column Flag(bool Column::*flag) {
    this->*flag = true;
    return std::move(*this);
  }
};

template <typename R>
using Columns = std::vector<Column<R>>;

/// \brief A column read straight from data member `member` of `R`.
template <typename R, typename V>
Column<R> Col(std::string name, V R::*member) {
  using catalogue_internal::ToValue;
  return {std::move(name), ToValue(V{}).type(),
          [member](const R& r) { return ToValue(r.*member); }};
}

/// \brief A data member of a member, e.g. `&G::admission, &Stats::queued`
/// (`inner` may belong to a base of the member's type).
template <typename R, typename M, typename B, typename V>
  requires std::is_base_of_v<B, M>
Column<R> Col(std::string name, M R::*outer, V B::*inner) {
  using catalogue_internal::ToValue;
  return {std::move(name), ToValue(V{}).type(),
          [outer, inner](const R& r) { return ToValue((r.*outer).*inner); }};
}

/// \brief An enum member: named by `name_of` in SQL and JSON, its
/// integer code in Prometheus.
template <typename R, typename E>
  requires std::is_enum_v<E>
Column<R> Col(std::string name, E R::*member, const char* (*name_of)(E)) {
  Column<R> c(std::move(name), TypeId::kString, [member, name_of](const R& r) {
    return Value::String(name_of(r.*member));
  });
  c.sample = [member](const R& r) {
    return Value::Int(static_cast<int64_t>(r.*member));
  };
  return c;
}

/// \brief The `gis.*` schema of `columns`.
template <typename R>
SchemaPtr SchemaOf(const Columns<R>& columns) {
  std::vector<Field> fields;
  for (const Column<R>& c : columns) fields.emplace_back(c.name, c.type, false);
  return std::make_shared<Schema>(std::move(fields));
}

/// \brief One `gis.*` row per element of `rows`, in range order.
template <typename R, typename Range>
RowBatch RenderRows(SchemaPtr schema, const Columns<R>& columns,
                    const Range& rows) {
  RowBatch batch(std::move(schema));
  for (const R& r : rows) {
    Row cells;
    for (const Column<R>& c : columns) cells.push_back(c.read(r));
    batch.Append(std::move(cells));
  }
  return batch;
}

/// \brief Appends, per exported column in declaration order, a
/// `# TYPE <prefix>_<family>` line and one sample per row, labeled with
/// the list's label column (its value escaped) when it has one. An
/// empty row range emits nothing.
template <typename R, typename Range>
void AppendSeries(std::string* out, const std::string& prefix,
                  const Columns<R>& columns, const Range& rows) {
  if (std::begin(rows) == std::end(rows)) return;
  const Column<R>* label = nullptr;
  for (const Column<R>& c : columns) label = c.label ? &c : label;
  for (const Column<R>& c : columns) {
    if (c.family.empty()) continue;
    const std::string name = prefix + "_" + c.family;
    *out += "# TYPE " + name + " " + c.family_type + "\n";
    for (const R& r : rows) {
      *out += name;
      if (label != nullptr) {
        *out += "{" + label->name + "=\"" +
                EscapeLabelValue(label->read(r).AsString()) + "\"}";
      }
      *out += ' ';
      *out += catalogue_internal::Text((c.sample ? c.sample : c.read)(r),
                                       /*json=*/false);
      *out += '\n';
    }
  }
}

/// \brief Appends `{"field":value,...}` over the JSON columns.
template <typename R>
void AppendJson(std::string* out, const Columns<R>& columns, const R& row) {
  char sep = '{';
  for (const Column<R>& c : columns) {
    if (!c.json) continue;
    *out += sep + JsonStr(c.name) + ":" +
            catalogue_internal::Text(c.read(row), /*json=*/true);
    sep = ',';
  }
  *out += sep == '{' ? "{}" : "}";
}

/// \brief Appends a JSON array with one AppendJson object per row.
template <typename R, typename Range>
void AppendJsonArray(std::string* out, const Columns<R>& columns,
                     const Range& rows) {
  char sep = '[';
  for (const R& r : rows) {
    *out += sep;
    AppendJson(out, columns, r);
    sep = ',';
  }
  *out += sep == '[' ? "[]" : "]";
}

}  // namespace gisql
