#include "util/text.hpp"

#include <array>
#include <cctype>

namespace pblpar::util {

namespace {

/// Byte -> its lower-cased form if it belongs to a word ([A-Za-z0-9'],
/// std::isalnum or '\'' in the C locale), else 0.
constexpr std::array<char, 256> kWordByte = [] {
  std::array<char, 256> table{};
  for (int ch = 0; ch < 256; ++ch) {
    if ((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'z') || ch == '\'') {
      table[static_cast<std::size_t>(ch)] = static_cast<char>(ch);
    } else if (ch >= 'A' && ch <= 'Z') {
      table[static_cast<std::size_t>(ch)] = static_cast<char>(ch - 'A' + 'a');
    }
  }
  return table;
}();

char word_byte(char ch) {
  return kWordByte[static_cast<unsigned char>(ch)];
}

}  // namespace

std::string to_lower(std::string_view text) {
  std::string lowered;
  lowered.reserve(text.size());
  for (const char ch : text) {
    lowered += static_cast<char>(
        std::tolower(static_cast<unsigned char>(ch)));
  }
  return lowered;
}

std::vector<std::string> split(std::string_view text,
                               std::string_view delimiters) {
  std::vector<std::string> pieces;
  std::string current;
  for (const char ch : text) {
    if (delimiters.find(ch) != std::string_view::npos) {
      if (!current.empty()) {
        pieces.push_back(std::move(current));
        current.clear();
      }
    } else {
      current += ch;
    }
  }
  if (!current.empty()) {
    pieces.push_back(std::move(current));
  }
  return pieces;
}

std::vector<std::string> tokenize_words(std::string_view text) {
  std::vector<std::string> words;
  const char* at = text.data();
  const char* const end = at + text.size();
  while (true) {
    while (at != end && word_byte(*at) == 0) {
      ++at;
    }
    if (at == end) {
      return words;
    }
    const char* const start = at;
    while (at != end && word_byte(*at) != 0) {
      ++at;
    }
    for (char& ch : words.emplace_back(start, at)) {
      ch = word_byte(ch);
    }
  }
}

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::string current;
  for (const char ch : text) {
    if (ch == '\n') {
      if (!current.empty() && current.back() == '\r') {
        current.pop_back();
      }
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current += ch;
    }
  }
  if (!current.empty()) {
    if (current.back() == '\r') {
      current.pop_back();
    }
    lines.push_back(std::move(current));
  }
  return lines;
}

std::string join(const std::vector<std::string>& pieces,
                 std::string_view separator) {
  std::string joined;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) {
      joined += separator;
    }
    joined += pieces[i];
  }
  return joined;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

std::string trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

}  // namespace pblpar::util
