#include "harness.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/flops.hpp"
#include "common/rng.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder_tasks.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "linalg/norms.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "runtime/trace.hpp"
#include "ulv/hss_ulv.hpp"
#include "ulv/hss_ulv_tasks.hpp"

namespace perfbench {
namespace {

using namespace hatrix;
using la::index_t;
using Clock = std::chrono::steady_clock;

constexpr index_t kBatch = 8;       // streamed requests per batch and set-up
constexpr int kMinChains = 2;       // bit-identity needs a second chain
constexpr int kStreamChains = 3;    // chains of a streaming run: its build_s and
                                    // factor_s are medians of these
constexpr int kMaxChains = 1000;
constexpr index_t kMinRequests = 20;  // streamed requests, whatever the time
constexpr index_t kMaxRequests = 100000;
constexpr index_t kTargets = 500;       // kriging prediction targets
constexpr double kNugget = 1e-4;        // kriging nugget (noise variance)
constexpr double kMiB = 1024.0 * 1024.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ------------------------------------------------------------ workloads

enum class Problem { YukawaGrid, MaternKriging, BemCircle };

struct Spec {
  std::string name;
  Problem problem;
  index_t n;              // problem size
  index_t leaf;           // HSSOptions::leaf_size
  index_t rank = 80;      // HSSOptions::max_rank
  index_t samples = 512;  // HSSOptions::sample_cols (initial sample)
  double guard_tol;       // HSSOptions::guard_tol (0: guard off)
  int workers;            // executor workers; 0: the DAGs run in insertion
                          // order on the calling thread, as fmt::build_hss does
  index_t rhs_cols;       // columns per solve request
  index_t requests;       // solve requests per chain; 0: chain 0 streams
                          // requests for the rest of the run's time
  index_t residual_rows;  // |S| of each sampled-residual check
};

const std::vector<Spec>& specs() {
  static const std::vector<Spec> s{
      {.name = "yukawa_grid", .problem = Problem::YukawaGrid, .n = 16384, .leaf = 256,
       .guard_tol = 1e-4, .workers = 4, .rhs_cols = 1, .requests = 5, .residual_rows = 64},
      {.name = "matern_kriging", .problem = Problem::MaternKriging, .n = 2048, .leaf = 256,
       .guard_tol = 1e-4, .workers = 4, .rhs_cols = 1 + kTargets, .requests = 4,
       .residual_rows = 2048},
      {.name = "bem_solve_stream", .problem = Problem::BemCircle, .n = 16384, .leaf = 128,
       .guard_tol = 0.0, .workers = 0, .rhs_cols = 16, .requests = 0, .residual_rows = 64},
  };
  return s;
}

const Spec& find_spec(const std::string& name) {
  for (const auto& s : specs())
    if (s.name == name) return s;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// Independent random streams derived from the workload seed (splitmix64
// finalizer), one per input, so adding an input never shifts another.
enum Stream : std::uint64_t {
  kSites = 1, kResidualSample, kHss, kGemm, kRequests = 1000
};

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The operator instance (kriging sites, HSS column-sampling seed) is pinned
// to the examples' own values unless an instance seed is given: at N=2048
// the guard's growth path, and with it kriging build time and residual,
// varies about 2x between instances, which would swamp any change under test.
constexpr std::uint64_t kExampleSitesSeed = 11;  // kriging_matern's Rng(11)

std::uint64_t sites_seed(const Config& c) {
  return c.instance_seed != 0 ? stream_seed(c.instance_seed, kSites) : kExampleSitesSeed;
}

std::uint64_t hss_seed(const Config& c) {
  return c.instance_seed != 0 ? stream_seed(c.instance_seed, kHss) : fmt::HSSOptions{}.seed;
}

la::Matrix normal_panel(index_t rows, index_t cols, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(rows, cols);
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < rows; ++i) m(i, j) = rng.normal();
  return m;
}

// ---------------------------------------------------------------- spans

/// Harness-side spans around calls into the library's layers. Kept in
/// memory and written out as Chrome trace events (one row per chain) when a
/// traced run ends.
class Spans {
 public:
  /// Open span `name` under `parent` (-1: top level); a top-level span
  /// names its chain (-1: set-up), children inherit it. Returns the span id.
  int begin(std::string name, int parent, int chain = -1) {
    if (parent >= 0) chain = spans_[static_cast<std::size_t>(parent)].chain;
    spans_.push_back({std::move(name), now(), 0.0, parent, chain});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Close span `id`; returns its duration in seconds.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now();
    return s.end - s.start;
  }
  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.chain + 1, s.start * 1e6,
                    (s.end - s.start) * 1e6, i, s.parent);
      out << buf;
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    double start, end;
    int parent, chain;
  };
  double now() const { return seconds_since(origin_); }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- set-up

/// One workload instance: the tree-ordered operator and its request 0, the
/// panel every chain solves first.
struct Instance {
  std::unique_ptr<geom::ClusterTree> tree;
  std::unique_ptr<kernels::Kernel> kernel;
  std::unique_ptr<kernels::KernelMatrix> km;
  la::Matrix rhs;
};

double kriging_truth(const geom::Point& p) {
  return std::sin(6.0 * p[0]) * std::cos(4.0 * p[1]) + 0.5 * p[0] * p[1];
}

/// Solve request `id` of a run: a fresh seeded panel. For kriging it is a
/// new prediction problem — observations y_i = f(x_i) + noise at the sites
/// in column 0, the cross-covariance K_* of m new targets in columns 1..m —
/// solved as one blocked panel.
la::Matrix request_panel(const Spec& s, const Instance& in, std::uint64_t seed, index_t id) {
  const index_t n = in.km->size();
  const std::uint64_t rs = stream_seed(seed, kRequests + static_cast<std::uint64_t>(id));
  if (s.problem != Problem::MaternKriging) return normal_panel(n, s.rhs_cols, rs);
  const auto& pts = in.tree->points();
  Rng rng(rs);
  const geom::Domain targets = geom::random2d(s.rhs_cols - 1, rng);
  la::Matrix b(n, s.rhs_cols);
  for (index_t i = 0; i < n; ++i)
    b(i, 0) = kriging_truth(pts[static_cast<std::size_t>(i)]) + std::sqrt(kNugget) * rng.normal();
  for (index_t t = 1; t < s.rhs_cols; ++t)
    for (index_t i = 0; i < n; ++i)
      b(i, t) = (*in.kernel)(targets.points[static_cast<std::size_t>(t - 1)],
                             pts[static_cast<std::size_t>(i)]);
  return b;
}

Instance make_instance(const Spec& s, index_t n, const Config& cfg, Spans& spans,
                       int parent, double& tree_s) {
  const std::uint64_t seed = cfg.seed;
  Instance in;
  int sp = spans.begin("geometry.domain", parent);
  geom::Domain domain;
  if (s.problem == Problem::MaternKriging) {
    Rng sites(sites_seed(cfg));
    domain = geom::random2d(n, sites);
  } else if (s.problem == Problem::YukawaGrid) {
    domain = geom::grid2d(n);
  } else {
    domain = geom::circle2d(n);
  }
  spans.end(sp);
  sp = spans.begin("geometry.cluster_tree", parent);
  in.tree = std::make_unique<geom::ClusterTree>(domain, s.leaf);
  tree_s = spans.end(sp);

  sp = spans.begin("kernels.kernel_matrix", parent);
  double shift = 0.0;
  if (s.problem == Problem::MaternKriging) {
    in.kernel = std::make_unique<kernels::Matern>(1.0, 0.03, 0.5);
    shift = kNugget;
  } else if (s.problem == Problem::YukawaGrid) {
    in.kernel = std::make_unique<kernels::Yukawa>(1.0);
  } else {
    // BEM collocation: screening length of one panel (the example's setting).
    in.kernel = std::make_unique<kernels::Yukawa>(
        1.0, 2.0 * 3.14159265358979323846 / static_cast<double>(n));
  }
  in.km = std::make_unique<kernels::KernelMatrix>(*in.kernel, in.tree->points(), shift);
  spans.end(sp);

  sp = spans.begin("inputs", parent);
  in.rhs = request_panel(s, in, seed, 0);
  spans.end(sp);
  return in;
}

/// ‖(A X − B)_S‖_F / ‖B_S‖_F against the true kernel operator on a seeded
/// row sample S, O(|S|·N) kernel evaluations per check. Every check draws a
/// fresh S — one row in each of |S| equal slices of the tree order — so the
/// median over a run's checks does not hinge on a few rows that happen to
/// carry most of the compression error.
class ResidualProbe {
 public:
  ResidualProbe(const kernels::KernelMatrix& km, index_t rows, std::uint64_t seed)
      : acc_(km), m_(std::min(rows, km.size())), seed_(seed),
        all_(static_cast<std::size_t>(km.size())) {
    std::iota(all_.begin(), all_.end(), index_t{0});
  }

  [[nodiscard]] index_t rows() const { return m_; }

  double operator()(const la::Matrix& x, const la::Matrix& b) {
    const index_t n = acc_.size();
    Rng rng(stream_seed(seed_, checks_++));
    std::vector<index_t> s;
    for (index_t k = 0; k < m_; ++k) {
      const index_t lo = k * n / m_;
      s.push_back(lo + rng.index((k + 1) * n / m_ - lo));
    }
    la::Matrix r(m_, b.cols());
    for (index_t j = 0; j < b.cols(); ++j)
      for (index_t k = 0; k < m_; ++k) r(k, j) = b(s[static_cast<std::size_t>(k)], j);
    const double bn = la::norm_fro(r);
    // With |S| = N every check uses all rows, so A is evaluated only once.
    if (m_ < n) {
      la::gemm(1.0, acc_.gather(s, all_), la::Trans::No, x, la::Trans::No, -1.0, r.view());
    } else {
      if (dense_.empty()) dense_ = acc_.gather(all_, all_);
      la::gemm(1.0, dense_, la::Trans::No, x, la::Trans::No, -1.0, r.view());
    }
    return la::norm_fro(r) / bn;
  }

 private:
  fmt::KernelAccessor acc_;
  index_t m_;
  std::uint64_t seed_;
  std::uint64_t checks_ = 0;
  std::vector<index_t> all_;
  la::Matrix dense_;  // A itself, when |S| = N
};

// ------------------------------------------------------- instrumentation

/// Forwarding accessor that counts kernel entries and the time spent
/// producing them. Builder tasks call it from every worker, so the totals
/// are atomics and eval time is summed over threads.
class CountingAccessor final : public fmt::BlockAccessor {
 public:
  explicit CountingAccessor(const fmt::BlockAccessor& inner) : inner_(inner) {}
  [[nodiscard]] index_t size() const override { return inner_.size(); }
  void fill_block(index_t row0, index_t col0, la::MatrixView out) const override {
    const auto t0 = Clock::now();
    inner_.fill_block(row0, col0, out);
    record(out.rows * out.cols, t0);
  }
  [[nodiscard]] la::Matrix gather(const std::vector<index_t>& rows,
                                  const std::vector<index_t>& cols) const override {
    const auto t0 = Clock::now();
    la::Matrix m = inner_.gather(rows, cols);
    record(static_cast<std::int64_t>(rows.size() * cols.size()), t0);
    return m;
  }
  [[nodiscard]] std::int64_t entries() const { return entries_.load(); }
  [[nodiscard]] double seconds() const { return static_cast<double>(nanos_.load()) * 1e-9; }

 private:
  void record(std::int64_t n, Clock::time_point t0) const {
    entries_.fetch_add(n, std::memory_order_relaxed);
    nanos_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
                         .count(),
                     std::memory_order_relaxed);
  }
  const fmt::BlockAccessor& inner_;
  mutable std::atomic<std::int64_t> entries_{0};
  mutable std::atomic<std::int64_t> nanos_{0};
};

/// Send file descriptor 2 — where the library's std::cerr notes go — to a
/// log file for the lifetime of the object. Redirecting the descriptor
/// rather than std::cerr's buffer keeps concurrent writes from builder
/// tasks thread-safe (stdio locks them).
class StderrToFile {
 public:
  explicit StderrToFile(const std::string& path) {
    std::fflush(stderr);
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw std::runtime_error("cannot open log file " + path);
    saved_ = ::dup(2);
    ::dup2(fd, 2);
    ::close(fd);
  }
  ~StderrToFile() { restore(); }
  StderrToFile(const StderrToFile&) = delete;
  StderrToFile& operator=(const StderrToFile&) = delete;

  void restore() {
    if (saved_ < 0) return;
    std::fflush(stderr);
    ::dup2(saved_, 2);
    ::close(saved_);
    saved_ = -1;
  }

 private:
  int saved_ = -1;
};

std::int64_t count_guard_notes(const std::string& path) {
  std::ifstream in(path);
  std::int64_t n = 0;
  for (std::string line; std::getline(in, line);)
    if (line.rfind("[hatrix] guard: node", 0) == 0) ++n;
  return n;
}

double gemm_gflops(std::uint64_t seed) {
  constexpr index_t m = 256;
  Rng rng(seed);
  const la::Matrix a = la::Matrix::random_normal(rng, m, m);
  const la::Matrix b = la::Matrix::random_normal(rng, m, m);
  la::Matrix c(m, m);
  std::vector<double> t;
  for (int rep = 0; rep < 31; ++rep) {
    const auto t0 = Clock::now();
    la::gemm(1.0, a, la::Trans::No, b, la::Trans::No, 0.0, c.view());
    t.push_back(seconds_since(t0));
  }
  return 2.0 * m * m * m / median(t) * 1e-9;
}

// ---------------------------------------------------------------- chains

/// One executed phase (build or factor): harness spans plus the executor's
/// own statistics, folded per task kind.
struct Phase {
  double wall = 0.0;      // emit + run + extract
  double emit_s = 0.0;    // DAG emission
  double run_wall = 0.0;  // the executor call, timed by the harness
  std::uint64_t flops = 0;
  rt::ExecutionStats stats;
  std::map<std::string, double> kind_s;
  std::map<std::string, std::int64_t> kind_n;
  double critical_path_s = 0.0;
  std::int64_t tasks = 0;

  [[nodiscard]] double kind(const std::string& k) const {
    const auto it = kind_s.find(k);
    return it == kind_s.end() ? 0.0 : it->second;
  }
  [[nodiscard]] std::int64_t count(const std::string& k) const {
    const auto it = kind_n.find(k);
    return it == kind_n.end() ? 0 : it->second;
  }
  /// |Σ per-kind task time + idle − workers·wall| / (workers·wall), with the
  /// wall taken around the executor call: the accounting identity of the
  /// per-kind breakdown.
  [[nodiscard]] double account_gap() const {
    double tasks_s = 0.0;
    for (const auto& [k, t] : kind_s) tasks_s += t;
    const double capacity = stats.workers * run_wall;
    return capacity > 0.0 ? std::abs(tasks_s + stats.overhead_total - capacity) / capacity
                          : 0.0;
  }
};

/// Run a graph: on the ThreadPoolExecutor, or (workers == 0) in insertion
/// order on the calling thread — the sequential driver fmt::build_hss uses —
/// stamping the same per-task trace so both report alike.
rt::ExecutionStats run_graph(const rt::TaskGraph& g, int workers) {
  if (workers > 0) {
    rt::ThreadPoolExecutor ex(workers);
    return ex.run(g);
  }
  rt::ExecutionStats s;
  s.workers = 1;
  s.worker_discovery = {0.0};
  const auto t0 = Clock::now();
  for (const auto& t : g.tasks()) {
    rt::TaskTrace tr{t.id, 0, seconds_since(t0), 0.0};
    if (t.work) t.work();
    tr.end = seconds_since(t0);
    s.compute_total += tr.duration();
    s.traces.push_back(tr);
  }
  s.wall_time = seconds_since(t0);
  s.overhead_total = s.wall_time - s.compute_total;
  return s;
}

void fold_kinds(Phase& ph, const rt::TaskGraph& g, bool traced) {
  ph.tasks = g.num_tasks();
  for (const auto& tr : ph.stats.traces) {
    const std::string& kind = g.tasks()[static_cast<std::size_t>(tr.task)].kind;
    ph.kind_s[kind] += tr.duration();
    ++ph.kind_n[kind];
  }
  if (traced) ph.critical_path_s = rt::critical_path_time(g, ph.stats);
}

/// The built matrix and its factorization; address-stable because the
/// factorization refers to the matrix.
struct Solver {
  fmt::HSSMatrix h;
  ulv::HSSULV f;
};

/// Everything measured on one chain.
struct Chain {
  bool traced = false;
  Phase build, factor;
  fmt::HSSBuildReport report;
  index_t max_rank = 0;
  std::int64_t factor_bytes = 0;
  std::int64_t kernel_entries = 0;
  double kernel_s = 0.0;
  std::int64_t peak_matrix_bytes = 0;
  std::vector<double> solve_s;  // one per solve request on this chain
  std::uint64_t solve_flops = 0;
  index_t solve_cols = 0;

  [[nodiscard]] double time_to_solution() const {
    return build.wall + factor.wall + (solve_s.empty() ? 0.0 : solve_s.front());
  }
};

std::unique_ptr<Solver> construct_and_factor(const Spec& s, const Instance& in,
                                             std::uint64_t hss_seed, int workers,
                                             Chain& ch, Spans& spans, int parent) {
  la::reset_matrix_peak();
  const fmt::KernelAccessor plain(*in.km);
  const CountingAccessor counting(plain);
  const fmt::BlockAccessor& acc =
      ch.traced ? static_cast<const fmt::BlockAccessor&>(counting) : plain;
  const fmt::HSSOptions opts{.leaf_size = s.leaf,
                             .max_rank = s.rank,
                             .sample_cols = s.samples,
                             .seed = hss_seed,
                             .guard_tol = s.guard_tol};
  auto solver = std::make_unique<Solver>();
  {
    Phase& ph = ch.build;
    const int span = spans.begin("format.build", parent);
    const std::uint64_t f0 = flops::total();
    rt::TaskGraph g;
    int sp = spans.begin("format.emit_hss_build_dag", span);
    fmt::HSSBuildDag dag = fmt::emit_hss_build_dag(acc, opts, g);
    ph.emit_s = spans.end(sp);
    sp = spans.begin("runtime.run", span);
    ph.stats = run_graph(g, workers);
    ph.run_wall = spans.end(sp);
    sp = spans.begin("format.extract_built_hss", span);
    ch.report = fmt::build_report(dag);
    solver->h = fmt::extract_built_hss(dag);
    spans.end(sp);
    ph.wall = spans.end(span);
    ph.flops = flops::total() - f0;
    fold_kinds(ph, g, ch.traced);
  }
  {
    Phase& ph = ch.factor;
    const int span = spans.begin("ulv.factorize", parent);
    const std::uint64_t f0 = flops::total();
    rt::TaskGraph g;
    int sp = spans.begin("ulv.emit_hss_ulv_dag", span);
    ulv::HSSULVDag dag = ulv::emit_hss_ulv_dag(solver->h, g, /*with_work=*/true);
    ph.emit_s = spans.end(sp);
    sp = spans.begin("runtime.run", span);
    ph.stats = run_graph(g, workers);
    ph.run_wall = spans.end(sp);
    sp = spans.begin("ulv.extract_factorization", span);
    solver->f = ulv::extract_factorization(dag);
    spans.end(sp);
    ph.wall = spans.end(span);
    ph.flops = flops::total() - f0;
    fold_kinds(ph, g, ch.traced);
  }
  ch.max_rank = solver->h.max_rank_used();
  ch.factor_bytes = solver->f.memory_bytes();
  ch.kernel_entries = counting.entries();
  ch.kernel_s = counting.seconds();
  return solver;
}

la::Matrix timed_solve(const ulv::HSSULV& f, const la::Matrix& b, Chain& ch, Spans& spans,
                       int parent) {
  const std::uint64_t f0 = flops::total();
  const int sp = spans.begin("ulv.solve", parent);
  la::Matrix x = f.solve(b);
  ch.solve_s.push_back(spans.end(sp));
  ch.solve_flops += flops::total() - f0;
  ch.solve_cols += b.cols();
  return x;
}

bool same_bits(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.rows() * a.cols()) * sizeof(double)) == 0;
}

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3e", v);
  return buf;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Highest whole percentile with at least ten samples beyond it (nearest
/// rank). Below 20 samples no percentile above the median qualifies, so the
/// median stands in and the returned percentile says so.
std::pair<double, int> tail_latency(std::vector<double> v) {
  if (v.size() < 20) return {median(v), 50};
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const int p = std::min(99, static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / n))));
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return {v[rank - 1], p};
}

}  // namespace

// ---------------------------------------------------------------- API

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& s : specs()) v.push_back(s.name);
    return v;
  }();
  return names;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m{
      {"setup_s", "s"},           {"build_s", "s"},
      {"factor_s", "s"},          {"solve_s", "s"},
      {"time_to_solution_s", "s"}, {"solves_per_s", "1/s"},
      {"solve_latency_p50_ms", "ms"}, {"solve_latency_tail_ms", "ms"},
      {"residual", "ratio"},      {"peak_rss_mb", "MiB"},
      {"success_rate", "ratio"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m{
      {"geometry.tree_s", "s"},
      {"kernels.entries", "count"},
      {"kernels.eval_s", "s"},
      {"kernels.entries_per_s", "1/s"},
      {"format.compress_s", "s"},
      {"format.transfer_s", "s"},
      {"format.merge_sample_s", "s"},
      {"format.guard_growths", "count"},
      {"format.rank_escapes", "count"},
      {"format.max_samples", "count"},
      {"format.max_rank", "count"},
      {"format.guard_pass_ratio", "ratio"},
      {"format.build_gflops", "GFLOP/s"},
      {"runtime.build_emit_s", "s"},
      {"runtime.factor_emit_s", "s"},
      {"runtime.discovery_s", "s"},
      {"runtime.build_idle_frac", "ratio"},
      {"runtime.factor_idle_frac", "ratio"},
      {"runtime.build_cp_util", "ratio"},
      {"runtime.factor_cp_util", "ratio"},
      {"runtime.tasks", "count"},
      {"runtime.build_account_gap", "ratio"},
      {"runtime.factor_account_gap", "ratio"},
      {"ulv.diag_product_s", "s"},
      {"ulv.partial_factor_s", "s"},
      {"ulv.merge_s", "s"},
      {"ulv.root_potrf_s", "s"},
      {"ulv.factor_gflops", "GFLOP/s"},
      {"ulv.factor_mb", "MiB"},
      {"ulv.solve_gflops", "GFLOP/s"},
      {"ulv.solve_flops_per_col", "flop"},
      {"linalg.gemm_peak_gflops", "GFLOP/s"},
      {"linalg.build_flops", "flop"},
      {"linalg.factor_flops", "flop"},
      {"linalg.build_peak_frac", "ratio"},
      {"linalg.factor_peak_frac", "ratio"},
      {"linalg.solve_peak_frac", "ratio"},
      {"linalg.peak_matrix_mb", "MiB"},
      {"trace.overhead_s", "s"},
      {"trace.overhead_frac", "ratio"},
  };
  return m;
}

namespace {

/// What a run collected, for the reports below.
struct RunLog {
  std::vector<Chain> chains;
  std::vector<double> setup_s, tree_s, residuals;
  double gemm_peak = 0.0;
  std::int64_t guard_notes = 0;
  std::string log_path;
};

/// Append metric `name`, which must be in `declared`, with its declared unit.
void add_metric(Result& res, const std::vector<std::pair<std::string, std::string>>& declared,
                const std::string& name, double v, const std::string& note) {
  for (const auto& [m, unit] : declared)
    if (m == name) {
      res.metrics.push_back({name, std::isfinite(v) ? v : 0.0, unit, note});
      return;
    }
  throw std::logic_error("metric " + name + " is not declared");
}

/// Median of a per-chain value over the traced, or over the plain, chains.
template <class F>
double median_over(const std::vector<Chain>& chains, bool traced, F f) {
  std::vector<double> v;
  for (const auto& ch : chains)
    if (ch.traced == traced) v.push_back(static_cast<double>(f(ch)));
  return median(v);
}

/// End-to-end metrics: medians over every chain and request of the run.
void report_end_to_end(const Spec& s, index_t n, double tol, const RunLog& log, Result& res) {
  const auto add = [&](const std::string& name, double v, const std::string& note) {
    add_metric(res, end_to_end_metrics(), name, v, note);
  };
  std::vector<double> lat;
  for (const auto& ch : log.chains) lat.insert(lat.end(), ch.solve_s.begin(), ch.solve_s.end());
  const std::string nc = "median of " + std::to_string(log.chains.size()) + " chains";
  const std::string nr = std::to_string(lat.size()) + " requests";
  const auto all = [&](auto&& f) { return median_over(log.chains, false, f); };
  const double build = all([](const Chain& c) { return c.build.wall; });
  const double factor = all([](const Chain& c) { return c.factor.wall; });
  const double solve = median(lat);
  const auto [tail, pct] = tail_latency(lat);
  add("setup_s", median(log.setup_s),
      "median of " + std::to_string(log.setup_s.size()) + " set-ups");
  add("build_s", build, nc);
  add("factor_s", factor, nc);
  add("solve_s", solve, "median of " + nr + " of " + std::to_string(s.rhs_cols) + " column(s)");
  add("time_to_solution_s", build + factor + solve, "build_s + factor_s + solve_s");
  add("solves_per_s", static_cast<double>(s.rhs_cols) / solve, "RHS columns / solve_s");
  add("solve_latency_p50_ms", solve * 1e3, nr);
  add("solve_latency_tail_ms", tail * 1e3,
      "p" + std::to_string(pct) + " of " + nr +
          (pct == 50 ? " (fewer than 20 requests: no percentile above p50 has 10 beyond it)"
                     : ""));
  const double worst = log.residuals.empty()
                           ? 0.0
                           : *std::max_element(log.residuals.begin(), log.residuals.end());
  add("residual", median(log.residuals),
      "median over " + std::to_string(log.residuals.size()) + " distinct requests (max " +
          sci(worst) + "), |S|=" + std::to_string(std::min(n, s.residual_rows)) +
          " per check, tolerance " + sci(tol));
  add("peak_rss_mb", peak_rss_mib(), "getrusage ru_maxrss");
  add("success_rate",
      1.0 - static_cast<double>(res.failed) / static_cast<double>(res.attempted),
      "1 - failure_rate");
}

/// Per-layer metrics: medians over the instrumented chains.
void report_per_layer(int lanes, const RunLog& log, Result& res) {
  const auto add = [&](const std::string& name, double v, const std::string& note = "") {
    add_metric(res, per_layer_metrics(), name, v, note);
  };
  const auto t = [&](auto&& f) { return median_over(log.chains, true, f); };
  const double entries = t([](const Chain& c) { return c.kernel_entries; });
  const double eval = t([](const Chain& c) { return c.kernel_s; });
  const double growths = t([](const Chain& c) { return c.report.total_growths; });
  // Nodes that ran the guard: one COMPRESS or TRANSFER task each.
  const double nodes =
      t([](const Chain& c) { return c.build.count("compress") + c.build.count("transfer"); });
  const double build_gflops = t([](const Chain& c) { return c.build.flops / c.build.wall; }) * 1e-9;
  const double factor_gflops =
      t([](const Chain& c) { return c.factor.flops / c.factor.wall; }) * 1e-9;
  const double solve_gflops = t([](const Chain& c) {
    double st = 0.0;
    for (double v : c.solve_s) st += v;
    return c.solve_flops / st;
  }) * 1e-9;
  const auto idle = [](const Phase& p) {
    return p.stats.overhead_total / (p.stats.workers * p.stats.wall_time);
  };

  add("geometry.tree_s", median(log.tree_s), "median of set-ups");
  add("kernels.entries", entries, "build, through the counting accessor");
  add("kernels.eval_s", eval, "summed over worker threads");
  add("kernels.entries_per_s", eval > 0.0 ? entries / eval : 0.0);
  add("format.compress_s", t([](const Chain& c) { return c.build.kind("compress"); }));
  add("format.transfer_s", t([](const Chain& c) { return c.build.kind("transfer"); }));
  add("format.merge_sample_s", t([](const Chain& c) { return c.build.kind("merge_sample"); }));
  add("format.guard_growths", growths);
  add("format.rank_escapes", t([](const Chain& c) { return c.report.rank_escapes; }),
      std::to_string(log.guard_notes) + " guard notes captured in " + log.log_path);
  add("format.max_samples", t([](const Chain& c) { return c.report.max_samples; }));
  add("format.max_rank", t([](const Chain& c) { return c.max_rank; }));
  add("format.guard_pass_ratio", nodes + growths > 0.0 ? nodes / (nodes + growths) : 1.0,
      "nodes / (nodes + growths)");
  add("format.build_gflops", build_gflops);
  add("runtime.build_emit_s", t([](const Chain& c) { return c.build.emit_s; }));
  add("runtime.factor_emit_s", t([](const Chain& c) { return c.factor.emit_s; }));
  add("runtime.discovery_s", t([](const Chain& c) {
        return c.build.stats.discovery_total + c.factor.stats.discovery_total;
      }));
  add("runtime.build_idle_frac", t([&](const Chain& c) { return idle(c.build); }));
  add("runtime.factor_idle_frac", t([&](const Chain& c) { return idle(c.factor); }));
  add("runtime.build_cp_util",
      t([](const Chain& c) { return c.build.critical_path_s / c.build.stats.wall_time; }));
  add("runtime.factor_cp_util",
      t([](const Chain& c) { return c.factor.critical_path_s / c.factor.stats.wall_time; }));
  add("runtime.tasks", t([](const Chain& c) { return c.build.tasks + c.factor.tasks; }));
  const double bgap = t([](const Chain& c) { return c.build.account_gap(); });
  const double fgap = t([](const Chain& c) { return c.factor.account_gap(); });
  add("runtime.build_account_gap", bgap, "|kinds + idle - workers*wall| / (workers*wall)");
  add("runtime.factor_account_gap", fgap);
  add("ulv.diag_product_s", t([](const Chain& c) { return c.factor.kind("diag_product"); }));
  add("ulv.partial_factor_s", t([](const Chain& c) { return c.factor.kind("partial_factor"); }));
  add("ulv.merge_s", t([](const Chain& c) { return c.factor.kind("merge"); }));
  add("ulv.root_potrf_s", t([](const Chain& c) { return c.factor.kind("potrf"); }));
  add("ulv.factor_gflops", factor_gflops);
  add("ulv.factor_mb", t([](const Chain& c) { return c.factor_bytes; }) / kMiB,
      "HSSULV::memory_bytes");
  add("ulv.solve_gflops", solve_gflops);
  add("ulv.solve_flops_per_col",
      t([](const Chain& c) { return static_cast<double>(c.solve_flops) / c.solve_cols; }));
  add("linalg.gemm_peak_gflops", log.gemm_peak, "gemm n=256, median of 31");
  add("linalg.build_flops", t([](const Chain& c) { return c.build.flops; }));
  add("linalg.factor_flops", t([](const Chain& c) { return c.factor.flops; }));
  add("linalg.build_peak_frac", build_gflops / (lanes * log.gemm_peak),
      "build GFLOP/s / (workers * gemm peak)");
  add("linalg.factor_peak_frac", factor_gflops / (lanes * log.gemm_peak));
  add("linalg.solve_peak_frac", solve_gflops / log.gemm_peak, "single-threaded solve");
  add("linalg.peak_matrix_mb", t([](const Chain& c) { return c.peak_matrix_bytes; }) / kMiB,
      "la::matrix_bytes_peak, build to the solve of request 0");
  const double traced_tts = t([](const Chain& c) { return c.time_to_solution(); });
  const double plain_tts =
      median_over(log.chains, false, [](const Chain& c) { return c.time_to_solution(); });
  const bool have_plain = std::any_of(log.chains.begin(), log.chains.end(),
                                      [](const Chain& c) { return !c.traced; });
  add("trace.overhead_s", have_plain ? traced_tts - plain_tts : 0.0,
      "traced minus untraced time_to_solution_s, same run");
  add("trace.overhead_frac", have_plain ? (traced_tts - plain_tts) / plain_tts : 0.0);
  for (const auto& [name, gap] : {std::pair{"build", bgap}, std::pair{"factor", fgap}})
    if (gap > 0.05)
      res.problems.push_back(std::string("warning: ") + name +
                             " per-kind task time + idle misses workers*wall by " + sci(gap));
}

}  // namespace

Result run_workload(const Config& cfg) {
  const Spec& s = find_spec(cfg.workload);
  const index_t n = cfg.n > 0 ? cfg.n : s.n;
  const double tol = cfg.residual_tol;
  if (!(tol > 0.0)) throw std::invalid_argument("the residual tolerance must be positive");
  const int hw = static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
  const int workers = s.workers > 0 ? std::min(s.workers, hw) : 0;
  const int lanes = std::max(workers, 1);  // threads doing the work

  std::filesystem::create_directories(cfg.log_dir);
  const std::string stem = cfg.log_dir + "/" + s.name + "-seed" + std::to_string(cfg.seed) +
                           (cfg.trace ? "-trace" : "");
  const std::string log_path = stem + ".log";

  Result res;
  Spans spans;
  RunLog log;
  log.log_path = log_path;
  double loop_s = 0.0;
  index_t requests = 0;
  {
    // The library's per-escape guard notes land in the log, not the report.
    StderrToFile capture(log_path);

    // Set-up repeats through the run — before every chain and every batch of
    // streamed requests — so setup_s, the median, sees the same machine
    // conditions as the phases it is compared with.
    const auto set_up = [&] {
      const int sp = spans.begin("setup", -1);
      double t = 0.0;
      Instance in = make_instance(s, n, cfg, spans, sp, t);
      log.setup_s.push_back(spans.end(sp));
      log.tree_s.push_back(t);
      return in;
    };
    const Instance inst = set_up();
    ResidualProbe probe(*inst.km, s.residual_rows, stream_seed(cfg.seed, kResidualSample));
    if (cfg.trace) log.gemm_peak = gemm_gflops(stream_seed(cfg.seed, kGemm));

    la::Matrix reference;  // the first chain's solution of request 0
    // `first_seen`: the request's residual enters the metric. Request 0 is
    // the same panel on every chain, so only its first solve is counted.
    const auto check = [&](const la::Matrix& x, const la::Matrix& b, bool compare,
                           bool first_seen, const std::string& what) {
      const double r = probe(x, b);
      if (first_seen) log.residuals.push_back(r);
      bool ok = true;
      if (!(r <= tol)) {  // also catches NaN
        res.problems.push_back(what + ": residual " + sci(r) + " exceeds " + sci(tol));
        ok = false;
      }
      if (compare) {
        if (reference.empty()) {
          reference = x;
        } else if (!same_bits(x, reference)) {
          res.problems.push_back(what + ": solution is not bit-identical to the first chain's");
          ok = false;
        }
      }
      if (!ok) ++res.failed;
    };

    // One solve request; an empty `b` stands for request 0, the instance's
    // own panel, which every chain solves first.
    struct Request {
      std::string what;
      la::Matrix b, x;
      std::string error;
    };
    const auto add_requests = [&](index_t count, std::vector<Request>& batch) {
      for (index_t k = 0; k < count; ++k, ++requests)
        batch.push_back({"request " + std::to_string(requests + 1),
                         request_panel(s, inst, cfg.seed, requests + 1), {}, {}});
    };
    // Solve a batch back-to-back, as a closed-loop client sends it, and only
    // then check it: checks in between would evict the factorization from
    // cache before every timed solve.
    const auto serve = [&](std::vector<Request>& batch, const ulv::HSSULV& f, Chain& ch,
                           int span, int c) {
      for (auto& q : batch) {
        try {
          q.x = timed_solve(f, q.b.empty() ? inst.rhs : q.b, ch, spans, span);
        } catch (const std::exception& e) {
          q.error = e.what();
        }
        if (q.b.empty()) ch.peak_matrix_bytes = la::matrix_bytes_peak();
      }
      for (auto& q : batch) {
        const bool first = q.b.empty();
        if (!first) ++res.attempted;  // request 0 is attempted with its chain
        if (!q.error.empty()) {
          ++res.failed;
          res.problems.push_back(q.what + ": " + q.error);
          continue;
        }
        if (first && cfg.corrupt && c == 1) q.x(0, 0) += 1.0 + std::abs(q.x(0, 0));
        check(q.x, first ? inst.rhs : q.b, first, !first || reference.empty(), q.what);
      }
      batch.clear();
    };

    const auto loop_start = Clock::now();
    for (int c = 0; c < kMaxChains; ++c) {
      if (s.requests == 0 ? c >= kStreamChains
                          : c >= kMinChains && seconds_since(loop_start) >= cfg.seconds)
        break;
      ++res.attempted;
      const std::string what = "chain " + std::to_string(c);
      const int cs = spans.begin(what, -1, c);
      try {
        Chain ch;
        // Traced runs alternate instrumented and plain chains, so the
        // overhead of the instrumentation is measured within the run.
        ch.traced = cfg.trace && c % 2 == 0;
        (void)set_up();
        // A chain's first batch is generated before its build, as a client
        // holds its inputs before it asks: request 0, then the workload's
        // further requests. Streaming, chain 0 then serves batches for as
        // long as the run's time leaves room for the other chains' builds.
        const bool streams = s.requests == 0 && c == 0;
        std::vector<Request> batch;
        batch.push_back({what, {}, {}, {}});
        add_requests(streams ? kBatch - 1 : std::max<index_t>(s.requests - 1, 0), batch);
        const auto solver =
            construct_and_factor(s, inst, hss_seed(cfg), workers, ch, spans, cs);
        serve(batch, solver->f, ch, cs, c);
        const double rebuild = (kStreamChains - 1) * (ch.build.wall + ch.factor.wall);
        while (streams && requests < kMaxRequests &&
               (requests < kMinRequests || seconds_since(loop_start) + rebuild < cfg.seconds)) {
          (void)set_up();
          add_requests(kBatch, batch);
          serve(batch, solver->f, ch, cs, c);
        }
        log.chains.push_back(std::move(ch));
      } catch (const std::exception& e) {
        ++res.failed;
        res.problems.push_back(what + ": " + e.what());
      }
      spans.end(cs);
    }
    loop_s = seconds_since(loop_start);
    capture.restore();
  }

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "workload %s, N=%lld, seed %llu, %s run: %zu chain(s)%s in %.2f s, "
                "%d worker(s)",
                s.name.c_str(), static_cast<long long>(n),
                static_cast<unsigned long long>(cfg.seed), cfg.trace ? "traced" : "untraced",
                log.chains.size(),
                requests > 0 ? (" + " + std::to_string(requests) + " further request(s)").c_str()
                             : "",
                loop_s, lanes);
  res.summary = buf;
  spans.write_chrome_trace(stem + ".spans.json");
  if (log.chains.empty()) return res;

  // Guard notes must match the structured escape count (every chain's build
  // printed its own notes); only meaningful when no chain died mid-build.
  std::int64_t escapes = 0;
  for (const auto& ch : log.chains) escapes += ch.report.rank_escapes;
  log.guard_notes = count_guard_notes(log_path);
  const bool all_built = static_cast<std::int64_t>(log.chains.size()) == res.attempted - requests;
  const bool notes_ok = !all_built || log.guard_notes == escapes;
  if (!notes_ok)
    res.problems.push_back("log has " + std::to_string(log.guard_notes) +
                           " guard notes but builds report " +
                           std::to_string(escapes) + " rank escapes");
  res.correct = res.failed == 0 && notes_ok;

  if (cfg.trace)
    report_per_layer(lanes, log, res);
  else
    report_end_to_end(s, n, tol, log, res);
  return res;
}

std::string result_json(const Result& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", r.metrics[i].value);
    out << (i ? ", " : "") << '"' << r.metrics[i].name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << r.metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string result_text(const Config& cfg, const Result& r) {
  std::ostringstream out;
  out << "perfbench: " << r.summary << "\n";
  char buf[512];
  std::snprintf(buf, sizeof buf, "verdict: %s (%lld attempted, %lld failed, failure_rate %.4g)\n",
                r.correct ? "CORRECT" : "INCORRECT", static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed),
                r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0.0);
  out << buf;
  for (const auto& p : r.problems) out << "  ! " << p << "\n";
  for (const auto& m : r.metrics) {
    std::snprintf(buf, sizeof buf, "  %-28s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    out << buf;
  }
  if (cfg.trace) out << "  (library notes and spans: " << cfg.log_dir << ")\n";
  return out.str();
}

}  // namespace perfbench
