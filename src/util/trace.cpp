#include "util/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace fg::util {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

JsonWriter::JsonWriter() { out_.reserve(256); }

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    if (root_written_) {
      throw std::logic_error("util::JsonWriter: multiple root values");
    }
    root_written_ = true;
    return;
  }
  if (stack_.back() == Frame::kObject) {
    if (!key_pending_) {
      throw std::logic_error("util::JsonWriter: value inside an object "
                             "requires a key");
    }
    key_pending_ = false;
  } else {
    if (has_items_.back()) out_ += ',';
    has_items_.back() = true;
  }
}

void JsonWriter::key(std::string_view k) {
  if (stack_.empty() || stack_.back() != Frame::kObject) {
    throw std::logic_error("util::JsonWriter: key() outside an object");
  }
  if (key_pending_) {
    throw std::logic_error("util::JsonWriter: key() twice without a value");
  }
  if (has_items_.back()) out_ += ',';
  has_items_.back() = true;
  out_ += '"';
  out_ += escape(k);
  out_ += "\":";
  key_pending_ = true;
}

void JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  has_items_.push_back(false);
}

void JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Frame::kObject || key_pending_) {
    throw std::logic_error("util::JsonWriter: unbalanced end_object()");
  }
  stack_.pop_back();
  has_items_.pop_back();
  out_ += '}';
}

void JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  has_items_.push_back(false);
}

void JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Frame::kArray) {
    throw std::logic_error("util::JsonWriter: unbalanced end_array()");
  }
  stack_.pop_back();
  has_items_.pop_back();
  out_ += ']';
}

void JsonWriter::value(std::string_view v) {
  before_value();
  out_ += '"';
  out_ += escape(v);
  out_ += '"';
}

void JsonWriter::value(double v) {
  before_value();
  char buf[32];
  // %.9g round-trips the magnitudes we report (seconds, ratios) while
  // keeping blobs compact; NaN/inf are not valid JSON, clamp to null.
  if (v != v) {
    out_ += "null";
    return;
  }
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out_ += buf;
}

void JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
}

void JsonWriter::value(std::uint64_t v) {
  before_value();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out_ += buf;
}

void JsonWriter::value(std::int64_t v) {
  before_value();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out_ += buf;
}

void JsonWriter::null() {
  before_value();
  out_ += "null";
}

bool JsonWriter::complete() const noexcept {
  return stack_.empty() && root_written_;
}

const std::string& JsonWriter::str() const {
  if (!complete()) {
    throw std::logic_error("util::JsonWriter: document incomplete");
  }
  return out_;
}

}  // namespace fg::util
