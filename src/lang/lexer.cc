#include "src/lang/lexer.h"

#include <cctype>
#include <cstdlib>
#include <string>

namespace mj {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentCont(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string TrimCopy(std::string_view view) {
  size_t begin = 0;
  size_t end = view.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(view[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(view[end - 1]))) {
    --end;
  }
  return std::string(view.substr(begin, end - begin));
}

}  // namespace

Lexer::Lexer(const SourceFile& file, DiagnosticEngine& diag)
    : file_(file), diag_(diag), text_(file.text()) {}

std::vector<Token> Lexer::LexAll() {
  std::vector<Token> tokens;
  while (true) {
    Token token = Next();
    tokens.push_back(token);
    if (token.kind == TokenKind::kEndOfFile) {
      break;
    }
  }
  return tokens;
}

char Lexer::Peek(uint32_t lookahead) const {
  uint64_t index = static_cast<uint64_t>(pos_) + lookahead;
  return index < text_.size() ? text_[index] : '\0';
}

char Lexer::Advance() {
  return text_[pos_++];
}

bool Lexer::Match(char expected) {
  if (AtEnd() || text_[pos_] != expected) {
    return false;
  }
  ++pos_;
  return true;
}

void Lexer::SkipWhitespaceAndComments() {
  while (!AtEnd()) {
    char c = Peek();
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos_;
      continue;
    }
    if (c == '/' && Peek(1) == '/') {
      uint32_t start = pos_;
      pos_ += 2;
      uint32_t text_start = pos_;
      while (!AtEnd() && Peek() != '\n') {
        ++pos_;
      }
      Comment comment;
      comment.location = file_.LocationFrom(start, &line_hint_);
      comment.text = TrimCopy(text_.substr(text_start, pos_ - text_start));
      comment.is_block = false;
      comments_.push_back(std::move(comment));
      continue;
    }
    if (c == '/' && Peek(1) == '*') {
      uint32_t start = pos_;
      pos_ += 2;
      uint32_t text_start = pos_;
      while (!AtEnd() && !(Peek() == '*' && Peek(1) == '/')) {
        ++pos_;
      }
      uint32_t text_end = pos_;
      if (AtEnd()) {
        diag_.Error(file_.LocationFor(start), "unterminated block comment");
      } else {
        pos_ += 2;
      }
      Comment comment;
      comment.location = file_.LocationFrom(start, &line_hint_);
      comment.text = TrimCopy(text_.substr(text_start, text_end - text_start));
      comment.is_block = true;
      comments_.push_back(std::move(comment));
      continue;
    }
    break;
  }
}

Token Lexer::MakeToken(TokenKind kind, uint32_t start) {
  Token token;
  token.kind = kind;
  token.location = file_.LocationFrom(start, &line_hint_);
  token.text = text_.substr(start, pos_ - start);
  return token;
}

Token Lexer::LexIdentifierOrKeyword() {
  uint32_t start = pos_;
  while (!AtEnd() && IsIdentCont(Peek())) {
    ++pos_;
  }
  std::string_view lexeme = text_.substr(start, pos_ - start);
  Token token = MakeToken(KeywordKind(lexeme), start);
  if (token.kind == TokenKind::kIdentifier) {
    token.symbol = symbols_.Intern(lexeme);
  }
  return token;
}

Token Lexer::LexNumber() {
  uint32_t start = pos_;
  while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
    ++pos_;
  }
  // Optional suffix 'L' for long literals, accepted and ignored.
  if (!AtEnd() && (Peek() == 'L' || Peek() == 'l')) {
    ++pos_;
  }
  Token token = MakeToken(TokenKind::kIntLiteral, start);
  std::string digits(token.text);
  if (!digits.empty() && (digits.back() == 'L' || digits.back() == 'l')) {
    digits.pop_back();
  }
  token.int_value = std::strtoll(digits.c_str(), nullptr, 10);
  return token;
}

Token Lexer::LexString() {
  uint32_t start = pos_;
  ++pos_;  // Opening quote.
  std::string value;
  while (!AtEnd() && Peek() != '"') {
    char c = Advance();
    if (c == '\\' && !AtEnd()) {
      char escaped = Advance();
      switch (escaped) {
        case 'n':
          value.push_back('\n');
          break;
        case 't':
          value.push_back('\t');
          break;
        case '\\':
          value.push_back('\\');
          break;
        case '"':
          value.push_back('"');
          break;
        default:
          value.push_back(escaped);
          break;
      }
      continue;
    }
    if (c == '\n') {
      diag_.Error(file_.LocationFor(start), "unterminated string literal");
      Token token = MakeToken(TokenKind::kStringLiteral, start);
      token.string_value = string_storage_.emplace_back(std::move(value));
      return token;
    }
    value.push_back(c);
  }
  if (AtEnd()) {
    diag_.Error(file_.LocationFor(start), "unterminated string literal");
  } else {
    ++pos_;  // Closing quote.
  }
  Token token = MakeToken(TokenKind::kStringLiteral, start);
  token.string_value = string_storage_.emplace_back(std::move(value));
  return token;
}

Token Lexer::Next() {
  SkipWhitespaceAndComments();
  if (AtEnd()) {
    return MakeToken(TokenKind::kEndOfFile, pos_);
  }
  uint32_t start = pos_;
  char c = Peek();
  if (IsIdentStart(c)) {
    return LexIdentifierOrKeyword();
  }
  if (std::isdigit(static_cast<unsigned char>(c))) {
    return LexNumber();
  }
  if (c == '"') {
    return LexString();
  }
  ++pos_;
  switch (c) {
    case '(':
      return MakeToken(TokenKind::kLParen, start);
    case ')':
      return MakeToken(TokenKind::kRParen, start);
    case '{':
      return MakeToken(TokenKind::kLBrace, start);
    case '}':
      return MakeToken(TokenKind::kRBrace, start);
    case '[':
      return MakeToken(TokenKind::kLBracket, start);
    case ']':
      return MakeToken(TokenKind::kRBracket, start);
    case ',':
      return MakeToken(TokenKind::kComma, start);
    case ';':
      return MakeToken(TokenKind::kSemicolon, start);
    case ':':
      return MakeToken(TokenKind::kColon, start);
    case '.':
      return MakeToken(TokenKind::kDot, start);
    case '+':
      if (Match('+')) {
        return MakeToken(TokenKind::kPlusPlus, start);
      }
      if (Match('=')) {
        return MakeToken(TokenKind::kPlusAssign, start);
      }
      return MakeToken(TokenKind::kPlus, start);
    case '-':
      if (Match('-')) {
        return MakeToken(TokenKind::kMinusMinus, start);
      }
      if (Match('=')) {
        return MakeToken(TokenKind::kMinusAssign, start);
      }
      return MakeToken(TokenKind::kMinus, start);
    case '*':
      return MakeToken(TokenKind::kStar, start);
    case '/':
      return MakeToken(TokenKind::kSlash, start);
    case '%':
      return MakeToken(TokenKind::kPercent, start);
    case '=':
      return MakeToken(Match('=') ? TokenKind::kEq : TokenKind::kAssign, start);
    case '!':
      return MakeToken(Match('=') ? TokenKind::kNe : TokenKind::kNot, start);
    case '<':
      return MakeToken(Match('=') ? TokenKind::kLe : TokenKind::kLt, start);
    case '>':
      return MakeToken(Match('=') ? TokenKind::kGe : TokenKind::kGt, start);
    case '&':
      if (Match('&')) {
        return MakeToken(TokenKind::kAndAnd, start);
      }
      diag_.Error(file_.LocationFor(start), "unexpected character '&'");
      return Next();
    case '|':
      if (Match('|')) {
        return MakeToken(TokenKind::kOrOr, start);
      }
      diag_.Error(file_.LocationFor(start), "unexpected character '|'");
      return Next();
    default:
      diag_.Error(file_.LocationFor(start),
                  std::string("unexpected character '") + c + "'");
      return Next();
  }
}

}  // namespace mj
