#pragma once

// In-memory span recorder for the benchmark's traced runs. The driver
// opens a span around each of its own calls into a vmgrid layer and
// around each of its callbacks the simulator runs; spans nest through a
// stack, so a layer's self time is its duration minus its children's.
// Per-kind totals cover every span; full (name, start, end, parent)
// records are kept up to a cap and written out when the run ends.

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kRep,            // one timed batch
  kSetup,          // world construction inside a batch
  kSimRun,         // Simulation::run / Grid::run
  kCallback,       // driver code the simulator calls back
  kNetSend,        // Network::send
  kCpuAdd,         // CpuEngine::add
  kCpuRemove,      // CpuEngine::remove
  kDiskWrite,      // Disk::write
  kSwarmFetch,     // SwarmDistributor::fetch
  kGridFtp,        // GridFtp::transfer
  kGlobusrun,      // GramClient::globusrun
  kInstantiate,    // ComputeServer::instantiate
  kTestbedSetup,   // testbed::StartupTestbed / WideAreaTestbed construction
  kCount,
};

inline constexpr const char* kSpanNames[] = {
    "bench.rep",        "bench.setup",          "sim.run",
    "driver.callback",  "net.send",             "host.cpu_add",
    "host.cpu_remove",  "storage.disk_write",   "image.fetch",
    "middleware.gridftp", "middleware.globusrun", "middleware.instantiate",
    "middleware.testbed_setup",
};
static_assert(sizeof(kSpanNames) / sizeof(kSpanNames[0]) ==
              static_cast<std::size_t>(SpanKind::kCount));

class SpanRecorder {
 public:
  struct Totals {
    std::uint64_t calls{0};
    std::int64_t total_ns{0};
    std::int64_t self_ns{0};
  };

  explicit SpanRecorder(std::size_t keep_records) : keep_{keep_records} {}

  void begin(SpanKind kind) {
    std::uint32_t rec = kNone;
    const std::int64_t t = now_ns();
    if (records_.size() < keep_) {
      rec = static_cast<std::uint32_t>(records_.size());
      records_.push_back(Record{kind, stack_.empty() ? kNone : stack_.back().rec, t, t});
    } else {
      ++dropped_;
    }
    stack_.push_back(Frame{kind, rec, t, 0});
  }

  void end() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t t = now_ns();
    const std::int64_t d = t - f.start;
    Totals& tot = totals_[static_cast<std::size_t>(f.kind)];
    ++tot.calls;
    tot.total_ns += d;
    tot.self_ns += d - f.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += d;
    if (f.rec != kNone) records_[f.rec].end_ns = t;
  }

  [[nodiscard]] const Totals& totals(SpanKind kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }

  /// Clears the per-kind totals (one traced batch at a time); kept
  /// records stay for the file written at exit.
  void reset_totals() {
    for (Totals& t : totals_) t = Totals{};
  }

  /// {"provenance":...,"dropped":n,"totals":[...],"spans":[{"name","start_ns",
  /// "end_ns","parent"}]} where parent is the index of the enclosing kept
  /// span or -1. Totals are those since the last reset_totals().
  bool write_json(const std::string& path, const std::string& provenance_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"provenance\":%s,\"dropped\":%llu,\"totals\":[",
                 provenance_json.c_str(), static_cast<unsigned long long>(dropped_));
    for (std::size_t k = 0; k < totals_.size(); ++k) {
      std::fprintf(f, "%s{\"name\":\"%s\",\"calls\":%llu,\"total_ns\":%lld,\"self_ns\":%lld}",
                   k == 0 ? "" : ",", kSpanNames[k],
                   static_cast<unsigned long long>(totals_[k].calls),
                   static_cast<long long>(totals_[k].total_ns),
                   static_cast<long long>(totals_[k].self_ns));
    }
    std::fprintf(f, "],\"spans\":[");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "%s{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld}",
                   i == 0 ? "\n" : ",\n", kSpanNames[static_cast<std::size_t>(r.kind)],
                   static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns),
                   r.parent == kNone ? -1LL : static_cast<long long>(r.parent));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Frame {
    SpanKind kind;
    std::uint32_t rec;
    std::int64_t start;
    std::int64_t child_ns;
  };
  struct Record {
    SpanKind kind;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_{std::chrono::steady_clock::now()};
  std::size_t keep_;
  std::uint64_t dropped_{0};
  std::vector<Frame> stack_;
  std::vector<Record> records_;
  std::array<Totals, static_cast<std::size_t>(SpanKind::kCount)> totals_{};
};

/// RAII span; with a null recorder (untraced runs) it costs one branch.
class Span {
 public:
  Span(SpanRecorder* rec, SpanKind kind) : rec_{rec} {
    if (rec_ != nullptr) rec_->begin(kind);
  }
  ~Span() {
    if (rec_ != nullptr) rec_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace perfbench
