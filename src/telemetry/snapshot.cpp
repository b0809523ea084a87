#include "telemetry/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "util/wire.hpp"

namespace fbf::telemetry {

namespace u = fbf::util;
namespace w = fbf::util::wire;

std::uint64_t MetricsSnapshot::counter(std::string_view name) const noexcept {
  for (const auto& [key, value] : counters) {
    if (key == name) {
      return value;
    }
  }
  return 0;
}

std::int64_t MetricsSnapshot::gauge(std::string_view name) const noexcept {
  for (const auto& [key, value] : gauges) {
    if (key == name) {
      return value;
    }
  }
  return 0;
}

const HistogramStats* MetricsSnapshot::histogram(
    std::string_view name) const noexcept {
  for (const HistogramStats& h : histograms) {
    if (h.name == name) {
      return &h;
    }
  }
  return nullptr;
}

MetricsSnapshot capture(const Registry& registry) {
  MetricsSnapshot snap;
  snap.counters = registry.counter_values();
  snap.gauges = registry.gauge_values();
  for (auto& [name, hist] : registry.histogram_values()) {
    HistogramStats stats;
    stats.name = name;
    stats.count = hist.count;
    stats.mean = hist.mean();
    stats.p50 = hist.percentile(0.50);
    stats.p99 = hist.percentile(0.99);
    stats.p999 = hist.percentile(0.999);
    stats.max = hist.max();
    snap.histograms.push_back(std::move(stats));
  }
  return snap;  // map iteration order keeps every section name-sorted
}

void merge_into(MetricsSnapshot& base, const MetricsSnapshot& extra) {
  const auto missing = [](const auto& rows, const std::string& name) {
    return std::none_of(rows.begin(), rows.end(), [&](const auto& row) {
      return row.first == name;
    });
  };
  for (const auto& row : extra.counters) {
    if (missing(base.counters, row.first)) {
      base.counters.push_back(row);
    }
  }
  for (const auto& row : extra.gauges) {
    if (missing(base.gauges, row.first)) {
      base.gauges.push_back(row);
    }
  }
  for (const HistogramStats& h : extra.histograms) {
    if (base.histogram(h.name) == nullptr) {
      base.histograms.push_back(h);
    }
  }
  for (const auto& row : extra.info) {
    if (missing(base.info, row.first)) {
      base.info.push_back(row);
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(base.counters.begin(), base.counters.end(), by_name);
  std::sort(base.gauges.begin(), base.gauges.end(), by_name);
  std::sort(base.histograms.begin(), base.histograms.end(),
            [](const HistogramStats& a, const HistogramStats& b) {
              return a.name < b.name;
            });
  std::sort(base.info.begin(), base.info.end(), by_name);
}

MetricsSnapshot diff(const MetricsSnapshot& prev, const MetricsSnapshot& cur) {
  MetricsSnapshot out;
  for (const auto& [name, value] : cur.counters) {
    const std::uint64_t before = prev.counter(name);
    const std::uint64_t delta = value >= before ? value - before : value;
    if (delta != 0) {
      out.counters.emplace_back(name, delta);
    }
  }
  out.gauges = cur.gauges;
  for (const HistogramStats& h : cur.histograms) {
    const HistogramStats* before = prev.histogram(h.name);
    HistogramStats d = h;
    if (before != nullptr && h.count >= before->count) {
      d.count = h.count - before->count;
    }
    if (d.count != 0) {
      out.histograms.push_back(std::move(d));
    }
  }
  out.info = cur.info;
  return out;
}

namespace {

std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.4f", v);
  return buffer;
}

/// JSON string escaping for names (dotted ASCII in practice, but the
/// renderer must not produce broken JSON on any input).
void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buffer;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

std::string render_metrics_table(const MetricsSnapshot& snap) {
  std::size_t width = 0;
  for (const auto& [name, value] : snap.counters) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, value] : snap.gauges) {
    width = std::max(width, name.size());
  }
  for (const HistogramStats& h : snap.histograms) {
    width = std::max(width, h.name.size() + 5);  // ".p999"
  }
  for (const auto& [name, value] : snap.info) {
    width = std::max(width, name.size());
  }
  std::ostringstream out;
  const auto row = [&](const std::string& name, const std::string& value) {
    out << name;
    for (std::size_t i = name.size(); i < width + 2; ++i) {
      out.put(' ');
    }
    out << value << "\n";
  };
  for (const auto& [name, value] : snap.info) {
    row(name, value);
  }
  for (const auto& [name, value] : snap.counters) {
    row(name, std::to_string(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    row(name, std::to_string(value));
  }
  for (const HistogramStats& h : snap.histograms) {
    row(h.name + ".count", std::to_string(h.count));
    row(h.name + ".mean", format_double(h.mean));
    row(h.name + ".p50", format_double(h.p50));
    row(h.name + ".p99", format_double(h.p99));
    row(h.name + ".p999", format_double(h.p999));
    row(h.name + ".max", format_double(h.max));
  }
  return out.str();
}

std::string render_metrics_json(const MetricsSnapshot& snap) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": " + std::to_string(value);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": " + std::to_string(value);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const HistogramStats& h : snap.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, h.name);
    out += ": {\"count\": " + std::to_string(h.count) +
           ", \"mean\": " + format_double(h.mean) +
           ", \"p50\": " + format_double(h.p50) +
           ", \"p99\": " + format_double(h.p99) +
           ", \"p999\": " + format_double(h.p999) +
           ", \"max\": " + format_double(h.max) + "}";
  }
  out += "\n  },\n  \"info\": {";
  first = true;
  for (const auto& [name, value] : snap.info) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": ";
    append_json_string(out, value);
  }
  out += "\n  }\n}\n";
  return out;
}

std::string encode_metrics_snapshot(const MetricsSnapshot& snap) {
  std::string out;
  w::put<std::uint32_t>(out, static_cast<std::uint32_t>(snap.counters.size()));
  for (const auto& [name, value] : snap.counters) {
    w::put_string(out, name);
    w::put<std::uint64_t>(out, value);
  }
  w::put<std::uint32_t>(out, static_cast<std::uint32_t>(snap.gauges.size()));
  for (const auto& [name, value] : snap.gauges) {
    w::put_string(out, name);
    w::put<std::int64_t>(out, value);
  }
  w::put<std::uint32_t>(out,
                        static_cast<std::uint32_t>(snap.histograms.size()));
  for (const HistogramStats& h : snap.histograms) {
    w::put_string(out, h.name);
    w::put<std::uint64_t>(out, h.count);
    w::put<double>(out, h.mean);
    w::put<double>(out, h.p50);
    w::put<double>(out, h.p99);
    w::put<double>(out, h.p999);
    w::put<double>(out, h.max);
  }
  w::put<std::uint32_t>(out, static_cast<std::uint32_t>(snap.info.size()));
  for (const auto& [name, value] : snap.info) {
    w::put_string(out, name);
    w::put_string(out, value);
  }
  return out;
}

u::Result<MetricsSnapshot> decode_metrics_snapshot(std::string_view payload) {
  const auto truncated = [] {
    return u::Status::invalid_argument(
        "truncated or trailing metrics snapshot payload");
  };
  w::Reader in{payload};
  MetricsSnapshot snap;
  // Minimum encoded row sizes bound each section count (Reader::get_count):
  // a name's u32 length plus the fixed-width value(s).
  constexpr std::size_t kName = sizeof(std::uint32_t);
  std::uint32_t n = 0;
  if (!in.get_count(n, kName + sizeof(std::uint64_t))) {
    return truncated();
  }
  snap.counters.resize(n);
  for (auto& [name, value] : snap.counters) {
    if (!in.get_string(name) || !in.get(value)) {
      return truncated();
    }
  }
  if (!in.get_count(n, kName + sizeof(std::int64_t))) {
    return truncated();
  }
  snap.gauges.resize(n);
  for (auto& [name, value] : snap.gauges) {
    if (!in.get_string(name) || !in.get(value)) {
      return truncated();
    }
  }
  if (!in.get_count(n, kName + sizeof(std::uint64_t) + 5 * sizeof(double))) {
    return truncated();
  }
  snap.histograms.resize(n);
  for (HistogramStats& h : snap.histograms) {
    if (!in.get_string(h.name) || !in.get(h.count) || !in.get(h.mean) ||
        !in.get(h.p50) || !in.get(h.p99) || !in.get(h.p999) ||
        !in.get(h.max)) {
      return truncated();
    }
  }
  if (!in.get_count(n, 2 * kName)) {
    return truncated();
  }
  snap.info.resize(n);
  for (auto& [name, value] : snap.info) {
    if (!in.get_string(name) || !in.get_string(value)) {
      return truncated();
    }
  }
  if (!in.done()) {
    return truncated();
  }
  return snap;
}

}  // namespace fbf::telemetry
