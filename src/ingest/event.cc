#include "ingest/event.h"

#include <cctype>
#include <charconv>

#include "storage/serde.h"

namespace tgraph::ingest {

namespace {

using storage::DeserializeProperties;
using storage::GetVarint;
using storage::PutVarint;
using storage::SerializeProperties;

uint64_t ZigZag(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

int64_t UnZigZag(uint64_t value) {
  return static_cast<int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

bool IsAddOrSet(EventKind kind) {
  return kind == EventKind::kAddVertex || kind == EventKind::kAddEdge ||
         kind == EventKind::kSetVertexProperty ||
         kind == EventKind::kSetEdgeProperty;
}

Result<std::vector<std::string_view>> SplitFields(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i >= line.size()) break;
    size_t start = i;
    if (line[i] == '"') {  // quoted field, may contain spaces
      ++i;
      while (i < line.size() && line[i] != '"') ++i;
      if (i >= line.size()) {
        return Status::InvalidArgument("unterminated quote");
      }
      ++i;  // closing quote
    } else {
      while (i < line.size() &&
             !std::isspace(static_cast<unsigned char>(line[i]))) {
        if (line[i] == '"') {
          // key="value with spaces": scan to the closing quote
          ++i;
          while (i < line.size() && line[i] != '"') ++i;
          if (i >= line.size()) {
            return Status::InvalidArgument("unterminated quote");
          }
        }
        ++i;
      }
    }
    fields.push_back(line.substr(start, i - start));
  }
  return fields;
}

Result<int64_t> ParseInt(std::string_view field, const char* what) {
  int64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc() || ptr != field.data() + field.size()) {
    return Status::InvalidArgument(std::string("bad ") + what + ": '" +
                                   std::string(field) + "'");
  }
  return value;
}

PropertyValue ParseValue(std::string_view text) {
  if (text.size() >= 2 && text.front() == '"' && text.back() == '"') {
    return PropertyValue(std::string(text.substr(1, text.size() - 2)));
  }
  if (text == "true") return PropertyValue(true);
  if (text == "false") return PropertyValue(false);
  int64_t as_int = 0;
  auto [iptr, iec] =
      std::from_chars(text.data(), text.data() + text.size(), as_int);
  if (iec == std::errc() && iptr == text.data() + text.size()) {
    return PropertyValue(as_int);
  }
  double as_double = 0;
  auto [dptr, dec] =
      std::from_chars(text.data(), text.data() + text.size(), as_double);
  if (dec == std::errc() && dptr == text.data() + text.size()) {
    return PropertyValue(as_double);
  }
  return PropertyValue(std::string(text));
}

Result<Properties> ParseKeyValues(
    const std::vector<std::string_view>& fields, size_t first) {
  Properties props;
  for (size_t i = first; i < fields.size(); ++i) {
    std::string_view field = fields[i];
    size_t eq = field.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("expected key=value, got '" +
                                     std::string(field) + "'");
    }
    props.Set(field.substr(0, eq), ParseValue(field.substr(eq + 1)));
  }
  return props;
}

std::string FormatValue(const PropertyValue& value) {
  if (value.is_string()) return "\"" + value.AsString() + "\"";
  if (value.is_bool()) return value.AsBool() ? "true" : "false";
  return value.ToString();
}

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kAddVertex:
      return "add-vertex";
    case EventKind::kRemoveVertex:
      return "remove-vertex";
    case EventKind::kSetVertexProperty:
      return "set-vertex";
    case EventKind::kAddEdge:
      return "add-edge";
    case EventKind::kRemoveEdge:
      return "remove-edge";
    case EventKind::kSetEdgeProperty:
      return "set-edge";
  }
  return "unknown";
}

std::string Event::ToString() const {
  std::string out = EventKindName(kind);
  // Appended piecewise: " " + std::string&& trips a GCC 12 -Wrestrict
  // false positive when inlined.
  out.append(" ").append(std::to_string(id));
  if (kind == EventKind::kAddEdge) {
    out.append(" ").append(std::to_string(src));
    out.append(" ").append(std::to_string(dst));
  }
  out.append(" ").append(std::to_string(at));
  for (const auto& [key, value] : props.entries()) {
    out += " " + key + "=" + FormatValue(value);
  }
  return out;
}

void EncodeEvent(const Event& event, std::string* out) {
  out->push_back(static_cast<char>(event.kind));
  PutVarint(out, ZigZag(event.id));
  PutVarint(out, ZigZag(event.at));
  if (event.kind == EventKind::kAddEdge) {
    PutVarint(out, ZigZag(event.src));
    PutVarint(out, ZigZag(event.dst));
  }
  if (IsAddOrSet(event.kind)) {
    SerializeProperties(event.props, out);
  }
}

Result<Event> DecodeEvent(std::string_view data, size_t* pos) {
  if (*pos >= data.size()) {
    return Status::IoError("truncated event: missing kind byte");
  }
  uint8_t kind_byte = static_cast<uint8_t>(data[(*pos)++]);
  if (kind_byte > static_cast<uint8_t>(EventKind::kSetEdgeProperty)) {
    return Status::IoError("unknown event kind " + std::to_string(kind_byte));
  }
  Event event;
  event.kind = static_cast<EventKind>(kind_byte);
  TG_ASSIGN_OR_RETURN(uint64_t id, GetVarint(data, pos));
  event.id = UnZigZag(id);
  TG_ASSIGN_OR_RETURN(uint64_t at, GetVarint(data, pos));
  event.at = UnZigZag(at);
  if (event.kind == EventKind::kAddEdge) {
    TG_ASSIGN_OR_RETURN(uint64_t src, GetVarint(data, pos));
    TG_ASSIGN_OR_RETURN(uint64_t dst, GetVarint(data, pos));
    event.src = UnZigZag(src);
    event.dst = UnZigZag(dst);
  }
  if (IsAddOrSet(event.kind)) {
    TG_ASSIGN_OR_RETURN(event.props, DeserializeProperties(data, pos));
  }
  if (event.is_set() && event.props.size() != 1) {
    return Status::IoError("set event must carry exactly one property, has " +
                           std::to_string(event.props.size()));
  }
  return event;
}

void EncodeEvents(const std::vector<Event>& events, std::string* out) {
  PutVarint(out, events.size());
  for (const Event& event : events) EncodeEvent(event, out);
}

Result<std::vector<Event>> DecodeEvents(std::string_view data, size_t* pos) {
  TG_ASSIGN_OR_RETURN(uint64_t count, GetVarint(data, pos));
  // Every event encodes to at least three bytes (kind + id + at), so a
  // count above remaining/3 cannot be satisfied and is rejected before
  // any allocation.
  if (count > (data.size() - *pos) / 3) {
    return Status::IoError("event count " + std::to_string(count) +
                           " exceeds payload bytes");
  }
  std::vector<Event> events;
  // A wire-legal count can still be millions for a max-size frame, and an
  // in-memory Event is an order of magnitude bigger than its encoding —
  // cap the up-front reservation and let the vector grow amortized past
  // it rather than reserving gigabytes before the first decode fails.
  events.reserve(std::min<uint64_t>(count, 64 * 1024));
  for (uint64_t i = 0; i < count; ++i) {
    TG_ASSIGN_OR_RETURN(Event event, DecodeEvent(data, pos));
    events.push_back(std::move(event));
  }
  return events;
}

Result<Event> ParseEventLine(std::string_view line) {
  TG_ASSIGN_OR_RETURN(std::vector<std::string_view> fields, SplitFields(line));
  if (fields.empty()) {
    return Status::InvalidArgument("empty event line");
  }
  Event event;
  std::string_view verb = fields[0];
  if (verb == "add-vertex") {
    event.kind = EventKind::kAddVertex;
  } else if (verb == "remove-vertex") {
    event.kind = EventKind::kRemoveVertex;
  } else if (verb == "set-vertex") {
    event.kind = EventKind::kSetVertexProperty;
  } else if (verb == "add-edge") {
    event.kind = EventKind::kAddEdge;
  } else if (verb == "remove-edge") {
    event.kind = EventKind::kRemoveEdge;
  } else if (verb == "set-edge") {
    event.kind = EventKind::kSetEdgeProperty;
  } else {
    return Status::InvalidArgument("unknown event verb '" + std::string(verb) +
                                   "'");
  }
  const size_t id_fields = event.kind == EventKind::kAddEdge ? 3 : 1;
  if (fields.size() < 1 + id_fields + 1) {
    return Status::InvalidArgument(std::string("too few fields for ") +
                                   EventKindName(event.kind));
  }
  TG_ASSIGN_OR_RETURN(event.id, ParseInt(fields[1], "id"));
  if (event.kind == EventKind::kAddEdge) {
    TG_ASSIGN_OR_RETURN(event.src, ParseInt(fields[2], "src"));
    TG_ASSIGN_OR_RETURN(event.dst, ParseInt(fields[3], "dst"));
  }
  TG_ASSIGN_OR_RETURN(event.at, ParseInt(fields[1 + id_fields], "timestamp"));
  TG_ASSIGN_OR_RETURN(event.props, ParseKeyValues(fields, 2 + id_fields));
  if (event.is_set() && event.props.size() != 1) {
    return Status::InvalidArgument(std::string(EventKindName(event.kind)) +
                                   " takes exactly one key=value");
  }
  if (!event.is_add() && !event.is_set() && !event.props.empty()) {
    return Status::InvalidArgument(std::string(EventKindName(event.kind)) +
                                   " takes no key=value fields");
  }
  return event;
}

Result<std::vector<Event>> ParseEventText(std::string_view text) {
  std::vector<Event> events;
  size_t line_number = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    std::string_view line = text.substr(
        start, nl == std::string_view::npos ? std::string_view::npos
                                            : nl - start);
    ++line_number;
    start = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    // Trim trailing CR and surrounding whitespace.
    while (!line.empty() &&
           std::isspace(static_cast<unsigned char>(line.back()))) {
      line.remove_suffix(1);
    }
    while (!line.empty() &&
           std::isspace(static_cast<unsigned char>(line.front()))) {
      line.remove_prefix(1);
    }
    if (line.empty() || line.front() == '#') continue;
    Result<Event> event = ParseEventLine(line);
    if (!event.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": " + event.status().message());
    }
    events.push_back(*std::move(event));
  }
  return events;
}

}  // namespace tgraph::ingest
