#include "sql/fingerprint.h"

#include <cstdint>

#include "sql/lexer.h"

namespace gisql {
namespace sql {

namespace {

/// Token rendering for the normalized template. Literals all become
/// `?` so parameter values never split a template; everything else
/// renders as its lexed text (keywords already upper-cased, operators
/// via their punctuation).
std::string TokenText(const Token& t) {
  switch (t.type) {
    case TokenType::kIntLiteral:
    case TokenType::kDoubleLiteral:
    case TokenType::kStringLiteral:
      return "?";
    case TokenType::kComma: return ",";
    case TokenType::kDot: return ".";
    case TokenType::kStar: return "*";
    case TokenType::kLParen: return "(";
    case TokenType::kRParen: return ")";
    case TokenType::kPlus: return "+";
    case TokenType::kMinus: return "-";
    case TokenType::kSlash: return "/";
    case TokenType::kPercent: return "%";
    case TokenType::kEq: return "=";
    case TokenType::kNe: return "<>";
    case TokenType::kLt: return "<";
    case TokenType::kLe: return "<=";
    case TokenType::kGt: return ">";
    case TokenType::kGe: return ">=";
    case TokenType::kSemicolon: return ";";
    default:
      return t.text;
  }
}

std::string NormalizeTokens(const std::vector<Token>& tokens) {
  std::string out;
  for (const Token& t : tokens) {
    if (t.type == TokenType::kEnd) break;
    if (!out.empty()) out += ' ';
    out += TokenText(t);
  }
  return out;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const char c : text) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;  // FNV-1a prime
  }
  return h;
}

std::string Hex(uint64_t h) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[h & 0xF];
    h >>= 4;
  }
  return out;
}

}  // namespace

std::string NormalizeStatement(const std::string& statement) {
  Lexer lexer(statement);
  auto tokens = lexer.Tokenize();
  if (!tokens.ok()) return statement;
  return NormalizeTokens(*tokens);
}

std::string FingerprintHex(const std::string& statement) {
  return Hex(Fnv1a(NormalizeStatement(statement)));
}

std::string FingerprintHex(const std::vector<Token>& tokens) {
  return Hex(Fnv1a(NormalizeTokens(tokens)));
}

}  // namespace sql
}  // namespace gisql
