// Machine-readable run output: a small streaming JSON writer.
//
// The writer emits canonical JSON (UTF-8 pass-through, escaped control
// characters, no trailing commas) so that `fgsort --stats-json` and the
// benches can dump one blob per run that any downstream tool can parse.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fg::util {

/// Streaming JSON writer with automatic comma placement.  Usage:
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("records"); w.value(std::uint64_t{1048576});
///   w.key("stages"); w.begin_array(); ... w.end_array();
///   w.end_object();
///   std::string blob = w.str();
///
/// Nesting mistakes (a value with no pending key inside an object, or
/// unbalanced begin/end) throw std::logic_error rather than emitting
/// malformed output.
class JsonWriter {
 public:
  JsonWriter();

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Name the next value inside an object.
  void key(std::string_view k);

  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v);
  void value(bool v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
  void null();

  /// Shorthand for key(k); value(v).
  template <typename T>
  void kv(std::string_view k, T&& v) {
    key(k);
    value(std::forward<T>(v));
  }

  /// True once every begin_* has been matched by its end_*.
  bool complete() const noexcept;

  /// The rendered document; valid only when complete().
  const std::string& str() const;

  static std::string escape(std::string_view s);

 private:
  enum class Frame : std::uint8_t { kObject, kArray };
  void before_value();

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> has_items_;  // parallel to stack_
  bool key_pending_{false};
  bool root_written_{false};
};

}  // namespace fg::util
