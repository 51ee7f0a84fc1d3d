#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace pblpar::util {

/// Streaming JSON writer shared by the run profiles (rt::RunProfile,
/// cluster::ClusterProfile) and the BENCH_*.json files. The caller says
/// what comes next — open a container, name a key, write a value — and
/// the writer places every comma and, in the indented style, every
/// newline and indent.
///
/// Strings are escaped (quote, backslash, control characters). Numbers
/// are printed with std::to_chars: doubles at shortest round-trip
/// precision, so strtod reads back the same bits, with ".0" added to an
/// integral value. A NaN or infinity, which JSON cannot spell, is
/// written as null. Nothing is validated: a key outside an object or an
/// unbalanced end_* is a caller bug.
class Json {
 public:
  enum class Style { compact, indented };

  explicit Json(Style style = Style::compact) : style_(style) {}

  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }

  /// Names the next member of the open object.
  Json& key(std::string_view name) {
    value(name);
    out_ += style_ == Style::indented ? ": " : ":";
    after_key_ = true;
    return *this;
  }

  Json& value(std::string_view text) {
    static constexpr char kHex[] = "0123456789abcdef";
    separate();
    out_ += '"';
    for (const char c : text) {
      const auto byte = static_cast<unsigned char>(c);
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (byte < 0x20) {
        out_ += "\\u00";
        out_ += kHex[byte >> 4];
        out_ += kHex[byte & 0xF];
      } else {
        out_ += c;
      }
    }
    out_ += '"';
    return *this;
  }
  // Without this overload a string literal would convert to bool.
  Json& value(const char* text) { return value(std::string_view(text)); }

  Json& value(bool flag) {
    separate();
    out_ += flag ? "true" : "false";
    return *this;
  }

  template <class T>
    requires((std::integral<T> || std::floating_point<T>) &&
             !std::same_as<T, bool>)
  Json& value(T number) {
    separate();
    if constexpr (std::floating_point<T>) {
      if (!std::isfinite(number)) {
        out_ += "null";
        return *this;
      }
    }
    char buffer[32];
    const auto end = std::to_chars(buffer, buffer + sizeof(buffer), number);
    const std::string_view digits(buffer, end.ptr);
    out_ += digits;
    // 8.0, not 8: a reader that types numbers by spelling sees a double.
    if (std::floating_point<T> &&
        digits.find_first_of(".e") == std::string_view::npos) {
      out_ += ".0";
    }
    return *this;
  }

  /// key(name).value(v) in one call.
  template <class T>
  Json& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  /// Members of the open object from name/value pairs:
  /// fields("a", 1, "b", "x") is field("a", 1).field("b", "x").
  Json& fields() { return *this; }
  template <class T, class... Rest>
  Json& fields(std::string_view name, const T& v, const Rest&... rest) {
    return field(name, v).fields(rest...);
  }

  /// One whole object from name/value pairs: object("a", 1) is {"a":1}.
  template <class... NameValues>
  Json& object(const NameValues&... pairs) {
    return begin_object().fields(pairs...).end_object();
  }

  /// Every element of `values` as one array.
  template <class Range>
  Json& array(const Range& values) {
    begin_array();
    for (const auto& v : values) {
      value(v);
    }
    return end_array();
  }

  const std::string& str() const { return out_; }

 private:
  Json& open(char bracket) {
    separate();
    out_ += bracket;
    empty_.push_back(true);
    return *this;
  }

  Json& close(char bracket) {
    const bool empty = empty_.back();
    empty_.pop_back();
    if (!empty) {
      newline();
    }
    out_ += bracket;
    return *this;
  }

  /// What goes before a key or value: nothing right after a key, else a
  /// comma unless it is the container's first element, then (indented)
  /// a fresh line.
  void separate() {
    if (after_key_) {
      after_key_ = false;
    } else if (!empty_.empty()) {
      if (!empty_.back()) {
        out_ += ',';
      }
      empty_.back() = false;
      newline();
    }
  }

  void newline() {
    if (style_ == Style::indented) {
      out_ += '\n';
      out_.append(2 * empty_.size(), ' ');
    }
  }

  std::string out_;
  std::vector<bool> empty_;  // per open container: nothing written yet
  bool after_key_ = false;
  Style style_;
};

}  // namespace pblpar::util
