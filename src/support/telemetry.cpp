#include "support/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "comm/clock.hpp"
#include "la/flops.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace nadmm::telem {

namespace {

// %.3f of microseconds: nanosecond resolution, deterministic printf
// rounding, compact files. Virtual times are doubles in seconds.
std::string fmt_us(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

// Shortest exact round-trip for counter samples.
std::string fmt_val(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Tracer::Tracer(std::string label)
    : label_(std::move(label)),
      wall_epoch_(std::chrono::steady_clock::now()) {}

Track& Tracer::track(int id) {
  NADMM_CHECK(id >= 0, "telemetry track id must be non-negative");
  const auto n = static_cast<std::size_t>(id);
  while (tracks_.size() <= n) {
    auto t = std::make_unique<Track>();
    t->id = static_cast<int>(tracks_.size());
    tracks_.push_back(std::move(t));
  }
  return *tracks_[n];
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  for (const auto& t : tracks_) n += t->events.size();
  return n;
}

std::vector<Event> Tracer::merged_events() const {
  std::vector<Event> all;
  all.reserve(event_count());
  for (const auto& t : tracks_) {
    all.insert(all.end(), t->events.begin(), t->events.end());
  }
  std::sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    if (a.sim_begin != b.sim_begin) return a.sim_begin < b.sim_begin;
    if (a.track != b.track) return a.track < b.track;
    return a.seq < b.seq;
  });
  return all;
}

double Tracer::wall_now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       wall_epoch_)
      .count();
}

void Tracer::add_counter(const std::string& name, std::uint64_t delta) {
  counters_[name] += delta;
}

void Tracer::set_gauge(const std::string& name, double value) {
  gauges_[name] = value;
}

void Tracer::observe(const std::string& name, double value) {
  histograms_[name].add(value);
}

void Tracer::snapshot_metrics(int track_id, double sim_time) {
  Track& t = track(track_id);
  for (const auto& [name, value] : counters_) {
    Event e;
    e.kind = EventKind::kCounter;
    e.category = "metric";
    e.name = name.c_str();  // std::map node storage: stable
    e.track = t.id;
    e.seq = t.next_seq++;
    e.sim_begin = e.sim_end = sim_time;
    e.wall_begin = e.wall_end = wall_now();
    e.value = static_cast<double>(value);
    t.events.push_back(e);
  }
  for (const auto& [name, value] : gauges_) {
    Event e;
    e.kind = EventKind::kCounter;
    e.category = "metric";
    e.name = name.c_str();
    e.track = t.id;
    e.seq = t.next_seq++;
    e.sim_begin = e.sim_end = sim_time;
    e.wall_begin = e.wall_end = wall_now();
    e.value = value;
    t.events.push_back(e);
  }
}

void Tracer::write_chrome_trace(std::ostream& os, bool include_wall) const {
  std::vector<Event> events = merged_events();
  // At equal (ts, track), Chrome/Perfetto rebuild slice nesting from
  // input order, expecting the enclosing span first. Spans record at
  // scope *exit*, so per-track seq alone would put inner spans first;
  // break sim_begin ties by descending duration instead.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.sim_begin != b.sim_begin) return a.sim_begin < b.sim_begin;
    if (a.track != b.track) return a.track < b.track;
    const double da = a.sim_end - a.sim_begin;
    const double db = b.sim_end - b.sim_begin;
    if (da != db) return da > db;
    return a.seq < b.seq;
  });

  os << "{\"displayTimeUnit\": \"ms\",\n";
  os << "\"otherData\": {\"label\": \"" << json_escape(label_) << "\"},\n";
  os << "\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const auto& t : tracks_) {
    sep();
    os << "{\"ph\": \"M\", \"pid\": " << t->id
       << ", \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": "
          "\"rank "
       << t->id << "\"}}";
  }
  for (const Event& e : events) {
    sep();
    switch (e.kind) {
      case EventKind::kSpan:
        os << "{\"ph\": \"X\", \"pid\": " << e.track
           << ", \"tid\": 0, \"cat\": \"" << e.category << "\", \"name\": \""
           << e.name << "\", \"ts\": " << fmt_us(e.sim_begin)
           << ", \"dur\": " << fmt_us(e.sim_end - e.sim_begin);
        if (e.flops != 0 || e.bytes != 0 || include_wall) {
          os << ", \"args\": {\"flops\": " << e.flops
             << ", \"bytes\": " << e.bytes;
          if (include_wall) {
            os << ", \"wall_us\": " << fmt_us(e.wall_end - e.wall_begin);
          }
          os << "}";
        }
        os << "}";
        break;
      case EventKind::kInstant:
        os << "{\"ph\": \"i\", \"pid\": " << e.track
           << ", \"tid\": 0, \"s\": \"p\", \"cat\": \"" << e.category
           << "\", \"name\": \"" << e.name
           << "\", \"ts\": " << fmt_us(e.sim_begin) << "}";
        break;
      case EventKind::kCounter:
        os << "{\"ph\": \"C\", \"pid\": " << e.track
           << ", \"tid\": 0, \"name\": \"" << e.name
           << "\", \"ts\": " << fmt_us(e.sim_begin)
           << ", \"args\": {\"value\": " << fmt_val(e.value) << "}}";
        break;
    }
  }
  os << "\n]}\n";
}

void Tracer::write_chrome_trace_file(const std::string& path,
                                     bool include_wall) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw RuntimeError("telemetry: cannot open trace output '" + path + "'");
  }
  write_chrome_trace(os, include_wall);
  os.flush();
  if (!os) {
    throw RuntimeError("telemetry: failed writing trace output '" + path +
                       "'");
  }
}

std::string Tracer::ascii_timeline(int width) const {
  if (width < 8) width = 8;
  const std::vector<Event> events = merged_events();
  double t_end = 0.0;
  for (const Event& e : events) t_end = std::max(t_end, e.sim_end);

  // Distinct span categories, in first-appearance order of the merge.
  std::vector<const char*> cats;
  for (const Event& e : events) {
    if (e.kind != EventKind::kSpan) continue;
    bool known = false;
    for (const char* c : cats) {
      if (std::strcmp(c, e.category) == 0) known = true;
    }
    if (!known) cats.push_back(e.category);
  }
  // One glyph per category: first character of the name not already
  // taken ("core"→c, "comm"→o), falling back to '#'.
  std::string glyphs;
  for (const char* c : cats) {
    char pick = '#';
    for (const char* p = c; *p != '\0'; ++p) {
      if (glyphs.find(*p) == std::string::npos) {
        pick = *p;
        break;
      }
    }
    glyphs.push_back(pick);
  }
  auto cat_index = [&](const char* c) {
    for (std::size_t i = 0; i < cats.size(); ++i) {
      if (std::strcmp(cats[i], c) == 0) return i;
    }
    return cats.size();
  };

  std::ostringstream os;
  os << "telemetry timeline — " << label_ << " (" << fmt_val(t_end)
     << " sim s, " << event_count() << " events)\n";
  if (t_end <= 0.0 || tracks_.empty()) {
    os << "  (no timed events)\n";
    return os.str();
  }
  const double bucket = t_end / width;
  for (const auto& t : tracks_) {
    // Per-bucket coverage per category; the dominant one paints the cell.
    std::vector<std::vector<double>> cover(
        static_cast<std::size_t>(width),
        std::vector<double>(cats.size(), 0.0));
    std::vector<double> totals(cats.size(), 0.0);
    for (const Event& e : t->events) {
      if (e.kind != EventKind::kSpan) continue;
      const std::size_t ci = cat_index(e.category);
      totals[ci] += e.sim_end - e.sim_begin;
      int b0 = static_cast<int>(e.sim_begin / bucket);
      int b1 = static_cast<int>(e.sim_end / bucket);
      b0 = std::clamp(b0, 0, width - 1);
      b1 = std::clamp(b1, 0, width - 1);
      for (int b = b0; b <= b1; ++b) {
        const double lo = std::max(e.sim_begin, b * bucket);
        const double hi = std::min(e.sim_end, (b + 1) * bucket);
        if (hi > lo) cover[static_cast<std::size_t>(b)][ci] += hi - lo;
      }
    }
    os << "rank " << t->id << " |";
    for (int b = 0; b < width; ++b) {
      std::size_t best = cats.size();
      double best_cover = 0.0;
      for (std::size_t ci = 0; ci < cats.size(); ++ci) {
        if (cover[static_cast<std::size_t>(b)][ci] > best_cover) {
          best_cover = cover[static_cast<std::size_t>(b)][ci];
          best = ci;
        }
      }
      os << (best < cats.size() ? glyphs[best] : '.');
    }
    os << "|";
    for (std::size_t ci = 0; ci < cats.size(); ++ci) {
      if (totals[ci] > 0.0) {
        os << ' ' << cats[ci] << '=' << fmt_val(totals[ci]) << 's';
      }
    }
    os << "\n";
  }
  if (!cats.empty()) {
    os << "legend:";
    for (std::size_t ci = 0; ci < cats.size(); ++ci) {
      os << ' ' << glyphs[ci] << '=' << cats[ci];
    }
    os << " .=idle\n";
  }
  if (!counters_.empty()) {
    os << "counters:";
    for (const auto& [name, v] : counters_) os << ' ' << name << '=' << v;
    os << "\n";
  }
  if (!gauges_.empty()) {
    os << "gauges:";
    for (const auto& [name, v] : gauges_) {
      os << ' ' << name << '=' << fmt_val(v);
    }
    os << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << "hist " << name << ": n=" << h.count();
    if (h.count() > 0) {
      os << " p50=" << fmt_val(h.quantile(0.5))
         << " p99=" << fmt_val(h.quantile(0.99)) << " max=" << fmt_val(h.max());
    }
    os << "\n";
  }
  return os.str();
}

TracerScope::TracerScope(Tracer& tracer) : prev_(detail::g_ctx.tracer) {
  detail::g_ctx.tracer = &tracer;
  detail::g_active.fetch_add(1, std::memory_order_relaxed);
}

TracerScope::~TracerScope() {
  detail::g_active.fetch_sub(1, std::memory_order_relaxed);
  detail::g_ctx.tracer = prev_;
}

TrackScope::TrackScope(int track, const comm::SimClock* clock)
    : prev_track_(detail::g_ctx.track), prev_clock_(detail::g_ctx.clock) {
  detail::g_ctx.track = track;
  detail::g_ctx.clock = clock;
}

TrackScope::~TrackScope() {
  detail::g_ctx.track = prev_track_;
  detail::g_ctx.clock = prev_clock_;
}

void SpanGuard::begin(const char* category, const char* name) {
  const detail::Context& ctx = detail::g_ctx;
  if (ctx.tracer == nullptr || ctx.clock == nullptr || ctx.track < 0) return;
  track_ = &ctx.tracer->track(ctx.track);
  clock_ = ctx.clock;
  category_ = category;
  name_ = name;
  sim_begin_ = clock_->projected_seconds();
  wall_begin_ = ctx.tracer->wall_now();
  flops_begin_ = nadmm::flops::read();
  bytes_begin_ = nadmm::flops::read_bytes();
}

void SpanGuard::end() {
  Event e;
  e.kind = EventKind::kSpan;
  e.category = category_;
  e.name = name_;
  e.track = track_->id;
  e.seq = track_->next_seq++;
  e.sim_begin = sim_begin_;
  e.sim_end = std::max(sim_begin_, clock_->projected_seconds());
  e.wall_begin = wall_begin_;
  Tracer* tracer = detail::g_ctx.tracer;
  e.wall_end = tracer != nullptr ? tracer->wall_now() : wall_begin_;
  const std::uint64_t f = nadmm::flops::read();
  const std::uint64_t b = nadmm::flops::read_bytes();
  e.flops = f >= flops_begin_ ? f - flops_begin_ : 0;
  e.bytes = b >= bytes_begin_ ? b - bytes_begin_ : 0;
  track_->events.push_back(e);
}

namespace detail {

void instant_impl(const char* category, const char* name) {
  if (!active()) return;
  const detail::Context& ctx = detail::g_ctx;
  if (ctx.track < 0) return;
  Track& t = ctx.tracer->track(ctx.track);
  Event e;
  e.kind = EventKind::kInstant;
  e.category = category;
  e.name = name;
  e.track = t.id;
  e.seq = t.next_seq++;
  e.sim_begin = e.sim_end = ctx.clock->projected_seconds();
  e.wall_begin = e.wall_end = ctx.tracer->wall_now();
  t.events.push_back(e);
}

void count_impl(const char* name, std::uint64_t delta) {
  Tracer* t = current();
  if (t != nullptr) t->add_counter(name, delta);
}

void gauge_impl(const char* name, double value) {
  Tracer* t = current();
  if (t != nullptr) t->set_gauge(name, value);
}

void observe_impl(const char* name, double value) {
  Tracer* t = current();
  if (t != nullptr) t->observe(name, value);
}

void snapshot_metrics_impl() {
  if (!active()) return;
  const detail::Context& ctx = detail::g_ctx;
  if (ctx.track < 0) return;
  ctx.tracer->snapshot_metrics(ctx.track, ctx.clock->projected_seconds());
}

}  // namespace detail

}  // namespace nadmm::telem
