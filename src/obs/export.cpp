#include "obs/export.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <string_view>

#include "util/table.h"

namespace nwlb::obs {

namespace {

/// Shortest round-trip decimal for a finite double ("0.1", "3", "1e+30").
std::string format_double(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

/// Prometheus sample value: doubles, with the format's spellings for the
/// non-finite values.
std::string prom_value(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  return format_double(value);
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string prom_label_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

/// HELP text escaping: backslash and newline only (the format keeps the
/// rest verbatim to end of line).
std::string prom_help_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

std::string label_block(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first + "=\"" + prom_label_escape(labels[i].second) + "\"";
  }
  out += '}';
  return out;
}

/// Label block with one extra pair appended (histogram `le`).
std::string label_block_with(const Labels& labels, const std::string& extra_name,
                             const std::string& extra_value) {
  Labels all = labels;
  all.emplace_back(extra_name, extra_value);
  return label_block(all);
}

const char* type_name(Sample::Kind kind) {
  switch (kind) {
    case Sample::Kind::kCounter: return "counter";
    case Sample::Kind::kGauge: return "gauge";
    case Sample::Kind::kHistogram: return "histogram";
  }
  return "untyped";
}

/// JSON number: finite doubles as shortest round-trip, otherwise null.
std::string json_number(double value) {
  return std::isfinite(value) ? format_double(value) : std::string("null");
}

}  // namespace

std::string prometheus_text(const Snapshot& snapshot) {
  std::string out;
  const std::string* previous_name = nullptr;
  for (const Sample& sample : snapshot.samples) {
    // Samples arrive name-sorted; one HELP/TYPE header per metric name.
    if (previous_name == nullptr || *previous_name != sample.name) {
      if (!sample.help.empty())
        out += "# HELP " + sample.name + " " + prom_help_escape(sample.help) + "\n";
      out += "# TYPE " + sample.name + " " + type_name(sample.kind) + "\n";
    }
    previous_name = &sample.name;
    switch (sample.kind) {
      case Sample::Kind::kCounter:
        out += sample.name + label_block(sample.labels) + " " +
               std::to_string(sample.counter_value) + "\n";
        break;
      case Sample::Kind::kGauge:
        out += sample.name + label_block(sample.labels) + " " +
               prom_value(sample.gauge_value) + "\n";
        break;
      case Sample::Kind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < sample.bucket_counts.size(); ++b) {
          cumulative += sample.bucket_counts[b];
          const std::string le =
              b < sample.bounds.size() ? prom_value(sample.bounds[b]) : "+Inf";
          out += sample.name + "_bucket" +
                 label_block_with(sample.labels, "le", le) + " " +
                 std::to_string(cumulative) + "\n";
        }
        out += sample.name + "_sum" + label_block(sample.labels) + " " +
               prom_value(sample.sum) + "\n";
        out += sample.name + "_count" + label_block(sample.labels) + " " +
               std::to_string(sample.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string to_json(const Snapshot& snapshot, const std::vector<TraceEvent>& trace) {
  std::string out = "{\"metrics\":[";
  for (std::size_t i = 0; i < snapshot.samples.size(); ++i) {
    const Sample& sample = snapshot.samples[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"" + util::json_escape(sample.name) + "\"";
    out += ",\"type\":\"" + std::string(type_name(sample.kind)) + "\"";
    if (!sample.labels.empty()) {
      out += ",\"labels\":{";
      for (std::size_t l = 0; l < sample.labels.size(); ++l) {
        if (l > 0) out += ',';
        out += '"';
        out += util::json_escape(sample.labels[l].first);
        out += "\":\"";
        out += util::json_escape(sample.labels[l].second);
        out += '"';
      }
      out += '}';
    }
    if (!sample.help.empty())
      out += ",\"help\":\"" + util::json_escape(sample.help) + "\"";
    switch (sample.kind) {
      case Sample::Kind::kCounter:
        out += ",\"value\":" + std::to_string(sample.counter_value);
        break;
      case Sample::Kind::kGauge:
        out += ",\"value\":" + json_number(sample.gauge_value);
        break;
      case Sample::Kind::kHistogram: {
        out += ",\"count\":" + std::to_string(sample.count);
        out += ",\"sum\":" + json_number(sample.sum);
        out += ",\"buckets\":[";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < sample.bucket_counts.size(); ++b) {
          if (b > 0) out += ',';
          cumulative += sample.bucket_counts[b];
          out += "{\"le\":";
          out += b < sample.bounds.size() ? json_number(sample.bounds[b])
                                          : std::string("\"+Inf\"");
          out += ",\"count\":" + std::to_string(cumulative) + "}";
        }
        out += ']';
        break;
      }
    }
    out += '}';
  }
  out += "],\"trace\":[";
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& event = trace[i];
    if (i > 0) out += ',';
    out += "{\"seq\":" + std::to_string(event.sequence);
    out += ",\"scope\":\"" + util::json_escape(event.scope) + "\"";
    out += ",\"name\":\"" + util::json_escape(event.name) + "\"";
    out += ",\"value\":" + json_number(event.value);
    out += ",\"detail\":\"" + util::json_escape(event.detail) + "\"}";
  }
  out += "]}";
  return out;
}

std::string to_json(const Registry& registry) {
  return to_json(registry.snapshot(), registry.trace().events());
}

namespace {

bool metric_name_head(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
}
bool metric_name_tail(char c) {
  return metric_name_head(c) || (c >= '0' && c <= '9');
}
bool label_name_head(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

/// Consumes a metric/label identifier starting at `pos`; empty on failure.
std::string take_name(const std::string& line, std::size_t& pos, bool label) {
  const std::size_t begin = pos;
  if (pos < line.size() &&
      (label ? label_name_head(line[pos]) : metric_name_head(line[pos]))) {
    ++pos;
    while (pos < line.size() && metric_name_tail(line[pos])) ++pos;
  }
  return line.substr(begin, pos - begin);
}

/// True when `text` is a valid Prometheus sample value (float or the
/// spelled non-finites).
bool valid_sample_value(const std::string& text) {
  if (text == "+Inf" || text == "-Inf" || text == "Inf" || text == "NaN") return true;
  if (text.empty()) return false;
  char* end = nullptr;
  std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

void validate_prom_line(const std::string& line, std::size_t line_number,
                        std::vector<std::string>& errors) {
  auto fail = [&](const std::string& message) {
    errors.push_back("line " + std::to_string(line_number) + ": " + message);
  };
  if (line.empty()) return;
  if (line[0] == '#') {
    // "# HELP <name> <text>" / "# TYPE <name> <type>" / free-form comment.
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const bool is_type = line.rfind("# TYPE ", 0) == 0;
      std::size_t pos = 7;
      const std::string name = take_name(line, pos, /*label=*/false);
      if (name.empty()) return fail("HELP/TYPE without a metric name");
      if (is_type) {
        if (pos >= line.size() || line[pos] != ' ')
          return fail("TYPE without a type");
        const std::string type = line.substr(pos + 1);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped")
          return fail("unknown TYPE '" + type + "'");
      }
    }
    return;  // Any other comment is legal.
  }
  std::size_t pos = 0;
  const std::string name = take_name(line, pos, /*label=*/false);
  if (name.empty()) return fail("sample line does not start with a metric name");
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    bool first = true;
    while (true) {
      if (pos < line.size() && line[pos] == '}' && first) {
        ++pos;
        break;
      }
      const std::string label = take_name(line, pos, /*label=*/true);
      if (label.empty()) return fail("bad label name in '" + name + "'");
      if (pos >= line.size() || line[pos] != '=')
        return fail("label '" + label + "' missing '='");
      ++pos;
      if (pos >= line.size() || line[pos] != '"')
        return fail("label '" + label + "' value not quoted");
      ++pos;
      while (pos < line.size() && line[pos] != '"') {
        if (line[pos] == '\\') {
          if (pos + 1 >= line.size()) return fail("dangling escape in label value");
          const char escaped = line[pos + 1];
          if (escaped != '\\' && escaped != '"' && escaped != 'n')
            return fail("bad escape '\\" + std::string(1, escaped) + "' in label value");
          ++pos;
        }
        ++pos;
      }
      if (pos >= line.size()) return fail("unterminated label value");
      ++pos;  // Closing quote.
      first = false;
      if (pos < line.size() && line[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < line.size() && line[pos] == '}') {
        ++pos;
        break;
      }
      return fail("label block not closed");
    }
  }
  if (pos >= line.size() || line[pos] != ' ')
    return fail("missing space before sample value");
  ++pos;
  const std::size_t value_end = line.find(' ', pos);
  const std::string value = line.substr(pos, value_end == std::string::npos
                                                 ? std::string::npos
                                                 : value_end - pos);
  if (!valid_sample_value(value)) return fail("bad sample value '" + value + "'");
  if (value_end != std::string::npos) {
    // Optional integer timestamp, nothing after it.
    const std::string timestamp = line.substr(value_end + 1);
    if (timestamp.empty() ||
        timestamp.find_first_not_of("-0123456789") != std::string::npos)
      return fail("bad timestamp '" + timestamp + "'");
  }
}

}  // namespace

std::vector<std::string> validate_prometheus_text(const std::string& text) {
  std::vector<std::string> errors;
  std::size_t line_number = 1;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    validate_prom_line(text.substr(begin, end - begin), line_number, errors);
    ++line_number;
    begin = end + 1;
  }
  return errors;
}

namespace {

/// Minimal strict JSON syntax checker (recursive descent, depth-capped).
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  std::vector<std::string> run() {
    skip_whitespace();
    parse_value(0);
    skip_whitespace();
    if (errors_.empty() && pos_ != text_.size()) fail("trailing garbage");
    return std::move(errors_);
  }

 private:
  static constexpr int kMaxDepth = 64;

  void fail(const std::string& message) {
    if (errors_.empty())  // First error only; the rest is cascade noise.
      errors_.push_back("offset " + std::to_string(pos_) + ": " + message);
    pos_ = text_.size();  // Abort the walk.
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') return parse_string();
    if (c == 't') return parse_literal("true");
    if (c == 'f') return parse_literal("false");
    if (c == 'n') return parse_literal("null");
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail(std::string("unexpected character '") + c + "'");
  }

  void parse_literal(const std::string& literal) {
    if (text_.compare(pos_, literal.size(), literal) != 0)
      return fail("bad literal");
    pos_ += literal.size();
  }

  void parse_object(int depth) {
    ++pos_;  // '{'
    skip_whitespace();
    if (consume('}')) return;
    // Parsers keep one value per key, so a repeated key loses data.
    std::set<std::string_view> keys;
    while (errors_.empty()) {
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("object key must be a string");
      const std::size_t key_begin = pos_;
      parse_string();
      const std::string_view key(text_.data() + key_begin, pos_ - key_begin);
      if (!keys.insert(key).second) {
        pos_ = key_begin;
        std::string message = "repeated object key ";
        return fail(message.append(key));
      }
      skip_whitespace();
      if (!consume(':')) return fail("missing ':' after object key");
      skip_whitespace();
      parse_value(depth + 1);
      skip_whitespace();
      if (consume('}')) return;
      if (!consume(',')) return fail("missing ',' or '}' in object");
    }
  }

  void parse_array(int depth) {
    ++pos_;  // '['
    skip_whitespace();
    if (consume(']')) return;
    while (errors_.empty()) {
      skip_whitespace();
      parse_value(depth + 1);
      skip_whitespace();
      if (consume(']')) return;
      if (!consume(',')) return fail("missing ',' or ']' in array");
    }
  }

  void parse_string() {
    ++pos_;  // Opening quote.
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return fail("dangling escape");
        const char escaped = text_[pos_];
        if (escaped == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                std::string("0123456789abcdefABCDEF").find(text_[pos_]) ==
                    std::string::npos)
              return fail("bad \\u escape");
          }
        } else if (std::string("\"\\/bfnrt").find(escaped) == std::string::npos) {
          return fail(std::string("bad escape '\\") + escaped + "'");
        }
      }
      ++pos_;
    }
    fail("unterminated string");
  }

  void parse_number() {
    consume('-');
    if (pos_ >= text_.size()) return fail("bad number");
    if (text_[pos_] == '0') {
      ++pos_;  // No leading zeros: "0" may not be followed by a digit.
      if (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        return fail("leading zero in number");
    } else if (text_[pos_] >= '1' && text_[pos_] <= '9') {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    } else {
      return fail("bad number");
    }
    if (consume('.')) {
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        return fail("bad fraction");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        return fail("bad exponent");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace

std::vector<std::string> validate_json(const std::string& text) {
  return JsonValidator(text).run();
}

std::string write_exposition_files(const Registry& registry, const std::string& base) {
  const Snapshot snap = registry.snapshot();
  const std::vector<TraceEvent> trace = registry.trace().events();
  {
    std::ofstream prom(base + ".prom");
    if (!prom) return "cannot open " + base + ".prom for writing";
    prom << prometheus_text(snap);
  }
  {
    std::ofstream json(base + ".json");
    if (!json) return "cannot open " + base + ".json for writing";
    json << to_json(snap, trace) << "\n";
  }
  return {};
}

}  // namespace nwlb::obs
