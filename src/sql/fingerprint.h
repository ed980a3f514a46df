/// \file fingerprint.h
/// \brief Query fingerprints: literal-stripped statement templates.
///
/// Two statements share a fingerprint when they are the same *template*
/// — identical token stream after every literal (integer, double,
/// string) is replaced by `?`. "SELECT x FROM t WHERE id = 7" and
/// "SELECT x FROM t WHERE id = 42" collapse to one fingerprint;
/// changing a column, table, or operator produces a different one.
/// The advisor's hot-template detection and the `fingerprint` column
/// of gis.queries are both built on this normalization.

#pragma once

#include <string>
#include <vector>

#include "sql/token.h"

namespace gisql {
namespace sql {

/// \brief The literal-stripped template of `statement`: tokens joined
/// by single spaces, keywords upper-cased (lexer convention), literals
/// replaced by `?`. A statement that does not lex returns the raw
/// input unchanged — a malformed query is its own template.
std::string NormalizeStatement(const std::string& statement);

/// \brief FNV-1a 64-bit hash of NormalizeStatement(statement), rendered
/// as 16 lower-case hex digits — the value stored in
/// QueryLogEntry::fingerprint / gis.queries.
std::string FingerprintHex(const std::string& statement);

/// \brief The same fingerprint from an already-lexed statement, so a
/// parse need not lex twice: equals FingerprintHex(s) whenever
/// `tokens` is the successful Tokenize() of `s`.
std::string FingerprintHex(const std::vector<Token>& tokens);

}  // namespace sql
}  // namespace gisql
