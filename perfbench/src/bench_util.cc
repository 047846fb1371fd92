#include "bench_util.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <unordered_map>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

void TrimHeap() { malloc_trim(0); }

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

int Tracer::Begin(const char* name) {
  if (!on_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent, slide_});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int handle) {
  if (handle < 0) return;
  spans_[static_cast<std::size_t>(handle)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

sgq::Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return sgq::Status::Internal("cannot write trace file " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns - origin
        << ",\"end_ns\":" << s.end_ns - origin << ",\"parent\":" << s.parent
        << ",\"slide\":" << s.slide << "}\n";
  }
  out.close();
  return out ? sgq::Status::OK()
             : sgq::Status::Internal("short write to trace file " + path);
}

void AddTraceMetrics(const Tracer& tracer, double untraced_eps,
                     double traced_eps, Report* report) {
  const std::map<std::string, double> self = tracer.SelfSeconds();
  // Spans named "bench" are the benchmark's own work inside a slide
  // (reading replies), outside the timed interval.
  const double slides =
      tracer.TotalSeconds("slide") - tracer.TotalSeconds("bench");
  const auto it = self.find("slide");
  const double unattributed = it == self.end() ? 0 : it->second;
  report->Add("trace.overhead_pct",
              traced_eps > 0 ? (untraced_eps / traced_eps - 1) * 100 : 0,
              "%");
  report->Add("trace.unattributed_pct",
              slides > 0 ? unattributed / slides * 100 : 0, "%");
  for (const auto& [name, seconds] : self) {
    char line[128];
    std::snprintf(line, sizeof(line), "self time %-16s %10.4f s", name.c_str(),
                  seconds);
    report->Note(line);
  }
}

// ---------------------------------------------------------------------------
// Checking
// ---------------------------------------------------------------------------

void SnapshotChecker::Add(const Delivered& d) {
  if (perturb_ != Perturb::kNone) {
    buffered_.push_back(d);
    return;
  }
  Apply(d);
}

void SnapshotChecker::Apply(const Delivered& d) {
  const std::vector<Timestamp>& s = *samples_;
  if (d.deletion) {
    for (auto i = std::lower_bound(s.begin(), s.end(), d.ts); i != s.end();
         ++i) {
      sets_[static_cast<std::size_t>(i - s.begin())].erase(d.key);
    }
    return;
  }
  for (auto i = std::lower_bound(s.begin(), s.end(), d.ts);
       i != s.end() && *i < d.exp; ++i) {
    sets_[static_cast<std::size_t>(i - s.begin())].insert(d.key);
  }
}

bool SnapshotChecker::Finish() {
  if (perturb_ == Perturb::kNone) return false;
  // A pair delivered exactly once, by a tuple that covers a sample
  // instant, is put into that snapshot by that tuple alone (a later
  // deletion could still take it out, so the final snapshot is checked).
  std::unordered_map<std::uint64_t, int> count;
  for (const Delivered& d : buffered_) ++count[d.key];
  for (const Delivered& d : buffered_) Apply(d);
  const std::vector<Timestamp>& s = *samples_;
  std::size_t victim = buffered_.size();
  Timestamp covered = 0;
  for (std::size_t k = 0; k < buffered_.size() && victim == buffered_.size();
       ++k) {
    const Delivered& d = buffered_[k];
    if (d.deletion || count[d.key] != 1) continue;
    for (auto i = std::lower_bound(s.begin(), s.end(), d.ts);
         i != s.end() && *i < d.exp; ++i) {
      if (sets_[static_cast<std::size_t>(i - s.begin())].count(d.key)) {
        victim = k;
        covered = *i;
        break;
      }
    }
  }
  if (victim == buffered_.size()) return false;
  if (perturb_ == Perturb::kDrop) {
    buffered_.erase(buffered_.begin() + static_cast<std::ptrdiff_t>(victim));
  } else {
    buffered_[victim].exp = covered;  // shortened to end before the sample
  }
  for (auto& set : sets_) set.clear();
  for (const Delivered& d : buffered_) Apply(d);
  buffered_.clear();
  return true;
}

bool SameSnapshot(const std::unordered_set<std::uint64_t>& got,
                  const std::unordered_set<std::uint64_t>& want,
                  const std::string& what, Report* report) {
  if (got == want) return true;
  std::uint64_t missing = 0, extra = 0;
  for (std::uint64_t k : want) missing += got.count(k) == 0;
  for (std::uint64_t k : got) extra += want.count(k) == 0;
  report->Note("MISMATCH " + what + ": " + std::to_string(missing) +
               " pairs missing, " + std::to_string(extra) + " extra (oracle " +
               std::to_string(want.size()) + ")");
  return false;
}

std::unordered_set<std::uint64_t> ToKeys(const sgq::VertexPairSet& pairs) {
  std::unordered_set<std::uint64_t> out;
  out.reserve(pairs.size());
  for (const auto& [src, trg] : pairs) out.insert(PairKey(src, trg));
  return out;
}

sgq::Result<std::unordered_set<std::uint64_t>> OracleAt(
    const sgq::SgtStream& windowed, const sgq::RegularQuery& rq,
    const sgq::Vocabulary& vocab, Timestamp t) {
  const sgq::SnapshotGraph snapshot = sgq::SnapshotGraph::At(windowed, t);
  SGQ_ASSIGN_OR_RETURN(sgq::VertexPairSet pairs,
                       sgq::EvaluateOneTime(rq, snapshot, vocab));
  return ToKeys(pairs);
}

sgq::SgtStream ApplyWindow(const sgq::InputStream& stream,
                           const sgq::WindowSpec& window) {
  sgq::SgtStream out;
  out.reserve(stream.size());
  for (const sgq::Sge& e : stream) {
    if (e.is_deletion) {
      out.emplace_back(e.src, e.trg, e.label,
                       sgq::Interval(e.t, sgq::kMaxTimestamp),
                       sgq::Payload{e.edge()}, /*del=*/true);
    } else {
      out.emplace_back(e.src, e.trg, e.label,
                       sgq::Interval(e.t, window.ExpiryFor(e.t)),
                       sgq::Payload{e.edge()});
    }
  }
  return out;
}

sgq::Result<sgq::InputStream> Reintern(sgq::InputStream stream,
                                       const sgq::Vocabulary& local,
                                       std::uint64_t seed,
                                       sgq::Vocabulary* vocab) {
  std::vector<sgq::VertexId> order(local.NumVertices());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(Mix(seed));
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<sgq::VertexId> id(order.size());
  for (sgq::VertexId v : order) {
    id[v] = vocab->InternVertex(local.VertexName(v));
  }
  for (sgq::Sge& e : stream) {
    SGQ_ASSIGN_OR_RETURN(e.label,
                         vocab->InternInputLabel(local.LabelName(e.label)));
    e.src = id[e.src];
    e.trg = id[e.trg];
  }
  return stream;
}

std::vector<Timestamp> DrawInstants(std::uint64_t seed, Timestamp lo,
                                    Timestamp hi, int n) {
  std::mt19937_64 rng(Mix(seed + 1));
  std::uniform_int_distribution<Timestamp> pick(lo, hi);
  std::vector<Timestamp> out;
  while (static_cast<int>(out.size()) < n) {
    const Timestamp t = pick(rng);
    if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t DistinctIntervals(std::vector<Delivered> delivered) {
  std::unordered_map<std::uint64_t, std::vector<sgq::Interval>> by_key;
  for (const Delivered& d : delivered) {
    std::vector<sgq::Interval>& ivs = by_key[d.key];
    if (d.deletion) {
      for (sgq::Interval& iv : ivs) iv.exp = std::min(iv.exp, d.ts);
    } else {
      ivs.emplace_back(d.ts, d.exp);
    }
  }
  std::uint64_t distinct = 0;
  for (auto& [key, ivs] : by_key) {
    (void)key;
    std::sort(ivs.begin(), ivs.end(),
              [](const sgq::Interval& a, const sgq::Interval& b) {
                return a.ts < b.ts;
              });
    bool open = false;
    Timestamp end = 0;
    for (const sgq::Interval& iv : ivs) {
      if (iv.exp <= iv.ts) continue;  // truncated away
      if (!open || iv.ts > end) {
        ++distinct;
        open = true;
        end = iv.exp;
      } else {
        end = std::max(end, iv.exp);
      }
    }
  }
  return distinct;
}

}  // namespace perfbench
