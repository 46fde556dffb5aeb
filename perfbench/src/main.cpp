// tbsvd benchmark driver. Runs one workload through the library's public
// drivers and prints one JSON object on the last line of stdout; run.py
// turns it into the benchmark's metrics.
//
//   tbsvd_perf --workload W --seed N --seconds S --mode MODE [--trace-out F]
//
// MODE is one of
//   measure   cold first call, then a closed loop of driver calls for S s
//   cold      one cold driver call in a fresh process (set-up time)
//   trace     per-layer timings: untraced vs traced driver calls, then the
//             driver's stages replayed through each layer's public entry
//             point inside spans (written to F as Chrome trace JSON)
//   selftest  checks of the benchmark itself (no workload)
//
// Configuration shared by every workload: f64, 4 worker threads, one
// caller in a closed loop, library default options (nb/ib 0-sentinels)
// with no calibration active, alg = Auto for the GE2VAL drivers.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

#include "band/band_matrix.hpp"
#include "band/bd2val.hpp"
#include "band/bnd2bd.hpp"
#include "batched/batched.hpp"
#include "batched/small_svd.hpp"
#include "check.hpp"
#include "core/alg_gen.hpp"
#include "core/ge2bnd.hpp"
#include "core/svd.hpp"
#include "cp/dag_analysis.hpp"
#include "cp/sim_sched.hpp"
#include "gen.hpp"
#include "lac/blas.hpp"
#include "rsvd/rsvd.hpp"
#include "rsvd/tsqr.hpp"
#include "spans.hpp"
#include "tile/tile_matrix.hpp"
#include "tune/tune.hpp"

namespace perfbench {
namespace {

using tbsvd::ConstMatrixView;
using tbsvd::Matrix;
using tbsvd::MatrixView;

constexpr int kThreads = 4;
constexpr int kReflectors = 16;  // per orthogonal factor of a planted input

// ------------------------------------------------------------- helpers ---

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// The flop counts and kernel weights below are the benchmark's own copies,
// so that a metric's definition does not move when the library changes.

/// Flops of the paper's GE2BND normalization, 4 n^2 (m - n/3), used for
/// BIDIAG and R-BIDIAG alike.
double flops_ge2bnd(double m, double n) { return 4.0 * n * n * (m - n / 3.0); }

/// Flops of a Householder QR of an m x n matrix; also the count used for
/// forming its thin Q.
double flops_qr(double m, double n) { return 2.0 * n * n * (m - n / 3.0); }

/// Table-I kernel weights in units of nb^3 / 3 flops.
double op_weight(tbsvd::Op op) {
  using tbsvd::Op;
  switch (op) {
    case Op::GEQRT: case Op::GELQT: return 4.0;
    case Op::UNMQR: case Op::UNMLQ: return 6.0;
    case Op::TSQRT: case Op::TSLQT: return 6.0;
    case Op::TSMQR: case Op::TSMLQ: return 12.0;
    case Op::TTQRT: case Op::TTLQT: return 2.0;
    case Op::TTMQR: case Op::TTMLQ: return 6.0;
    case Op::LASET: return 0.0;
  }
  return 0.0;
}

/// Kernels reported per layer: every Op that GE2BND runs on the GE2VAL
/// workloads (BIDIAG and R-BIDIAG with the default Greedy trees).
const std::vector<tbsvd::Op>& reported_ops() {
  using tbsvd::Op;
  static const std::vector<Op> ops = {
      Op::GEQRT, Op::UNMQR, Op::TTQRT, Op::TTMQR, Op::GELQT,
      Op::UNMLQ, Op::TTLQT, Op::TTMLQ, Op::LASET};
  return ops;
}

/// Per-layer metrics of a traced run, only for the layers that ran.
using Layers = std::map<std::string, double>;

std::string json_num(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += (c == '\n') ? ' ' : c;
  }
  return o + "\"";
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------- machine probes ---

/// The benchmark's own single-core FMA loop: independent accumulator
/// chains, enough to cover FMA latency on two ports, in the widest vector
/// ISA this binary was compiled for. Best of several short runs, GF/s.
double fma_peak_gflops() {
  constexpr long kIters = 2'000'000;
  double best = 0.0;
  volatile double seed = 1e-9;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    double sink = 0.0;
#if defined(__AVX512F__)
    constexpr int kAcc = 16, kLanes = 8;
    __m512d acc[kAcc];
    const __m512d a = _mm512_set1_pd(1.0 - seed), b = _mm512_set1_pd(seed);
    for (auto& x : acc) x = _mm512_set1_pd(seed);
    for (long it = 0; it < kIters; ++it) {
      for (auto& x : acc) x = _mm512_fmadd_pd(x, a, b);
    }
    alignas(64) double tmp[8];
    for (auto& x : acc) {
      _mm512_store_pd(tmp, x);
      for (double t : tmp) sink += t;
    }
#elif defined(__AVX2__) && defined(__FMA__)
    constexpr int kAcc = 16, kLanes = 4;
    __m256d acc[kAcc];
    const __m256d a = _mm256_set1_pd(1.0 - seed), b = _mm256_set1_pd(seed);
    for (auto& x : acc) x = _mm256_set1_pd(seed);
    for (long it = 0; it < kIters; ++it) {
      for (auto& x : acc) x = _mm256_fmadd_pd(x, a, b);
    }
    alignas(32) double tmp[4];
    for (auto& x : acc) {
      _mm256_store_pd(tmp, x);
      sink += tmp[0] + tmp[1] + tmp[2] + tmp[3];
    }
#else
    constexpr int kAcc = 16, kLanes = 1;
    double acc[kAcc];
    const double a = 1.0 - seed, b = seed;
    for (auto& x : acc) x = seed;
    for (long it = 0; it < kIters; ++it) {
      for (auto& x : acc) x = x * a + b;
    }
    for (double x : acc) sink += x;
#endif
    const double dt = now_s() - t0;
    if (!(sink > 0.0)) return 0.0;  // keeps the loop observable
    best = std::max(best, 2.0 * kAcc * kLanes * kIters / dt * 1e-9);
  }
  return best;
}

const char* isa_macros() {
  return ""
#if defined(__AVX512F__)
         "AVX512F "
#endif
#if defined(__AVX2__)
         "AVX2 "
#endif
#if defined(__FMA__)
         "FMA "
#endif
#if defined(__AVX__)
         "AVX "
#endif
#if defined(__SSE4_2__)
         "SSE4_2 "
#endif
      ;
}

/// Median GF/s of C = A B for the given shape over a few calls.
double gemm_gflops(int m, int n, int k, double min_seconds, std::uint64_t seed) {
  Rng rng(seed);
  Matrix A(m, k), B(k, n), C(m, n);
  for (int j = 0; j < k; ++j)
    for (int i = 0; i < m; ++i) A(i, j) = rng.normal();
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < k; ++i) B(i, j) = rng.normal();
  std::vector<double> t;
  const double start = now_s();
  while (t.size() < 3 || (now_s() - start < min_seconds && t.size() < 100000)) {
    const double t0 = now_s();
    tbsvd::gemm<double>(tbsvd::Trans::No, tbsvd::Trans::No, 1.0, A.cview(),
                        B.cview(), 0.0, C.view());
    t.push_back(now_s() - t0);
  }
  return 2.0 * m * n * static_cast<double>(k) / median(t) * 1e-9;
}

// ---------------------------------------------------------- workloads ---

/// Same acceptance as SvdInfo::ok(): a flagged degraded solve is correct.
bool bd2val_ok(const tbsvd::Bd2valInfo& bi) {
  return bi.status == tbsvd::Status::Ok || bi.status == tbsvd::Status::Degraded;
}

/// Outcome of one timed driver call: problems attempted / failed (a
/// problem fails when the call throws, reports !ok(), or misses its
/// planted spectrum) and the worst error in eps * sigma_max.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  double err_eps = 0.0;
  std::string why;
  void add(const CheckResult& c, bool info_ok, const std::string& ctx) {
    ++attempted;
    err_eps = std::max(err_eps, c.err_eps);
    if (c.ok && info_ok) return;
    ++failed;
    if (why.empty()) why = ctx + ": " + (info_ok ? c.why : "info not ok");
  }
  void merge(const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    err_eps = std::max(err_eps, o.err_eps);
    if (why.empty()) why = o.why;
  }
};

/// Time budget of the traced run, split over its phases.
struct Budget {
  double start = now_s();
  double seconds = 1.0;
  [[nodiscard]] bool before(double frac) const {
    return now_s() - start < frac * seconds;
  }
};

/// Runs `body` at least `min_reps` times and until the budget reaches
/// `frac` of its length.
void repeat(const Budget& b, double frac, int min_reps,
            const std::function<void()>& body) {
  for (int r = 0; r < min_reps || b.before(frac); ++r) body();
}

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// One call of the public driver under test, checked.
  virtual Outcome solve() = 0;
  [[nodiscard]] virtual double flops_per_call() const = 0;
  [[nodiscard]] virtual double problems_per_call() const = 0;
  /// Resolved options as a JSON object.
  [[nodiscard]] virtual std::string resolved() const = 0;
  /// Per-layer metrics of a traced run (spans go to `tr`).
  virtual Layers trace(Tracer& tr, const Budget& b, Outcome& out) = 0;

  /// Untraced vs traced driver calls, alternating. The traced call is the
  /// same driver call inside a request span, made through `traced` (which
  /// may also collect the driver's own stage timings); returns both
  /// medians.
  std::pair<double, double> overhead_pairs(
      Tracer& tr, const Budget& b, double frac, Outcome& out, int& request,
      const std::function<Outcome()>& traced) {
    std::vector<double> plain, spans;
    repeat(b, frac, 3, [&] {
      const double t0 = now_s();
      out.merge(solve());
      plain.push_back(now_s() - t0);
      const int root = tr.begin("request", -1, ++request);
      const int d = tr.begin("driver", root, request);
      out.merge(traced());
      tr.end(d);
      tr.end(root);
      spans.push_back(tr.spans()[root].dur());
    });
    return {median(plain), median(spans)};
  }
};

// GE2VAL through gesvd_values (square_ge2val, tall_ge2val).
class Ge2valWorkload final : public Workload {
 public:
  Ge2valWorkload(int m, int n, double cond, std::uint64_t seed)
      : m_(m), n_(n), sigma_(geometric_spectrum(n, cond)) {
    Rng rng(seed);
    A_ = planted(m, n, sigma_, rng, kReflectors);
    opts_.ge2bnd.alg = tbsvd::BidiagAlg::Auto;
    opts_.ge2bnd.nthreads = kThreads;
    // Mirrors the driver's 0-sentinel resolution so the layer replay
    // tiles exactly as gesvd_values does.
    nb_ = std::min(tbsvd::tune::resolved_nb(0, sizeof(double), 64),
                   std::max(64, n));
    ib_ = std::min(tbsvd::tune::resolved_ib(0, sizeof(double), 32), nb_);
    p_ = tbsvd::pad_to_tiles(m, nb_) / nb_;
    q_ = tbsvd::pad_to_tiles(n, nb_) / nb_;
    rbidiag_ = tbsvd::prefer_rbidiag(p_, q_);
  }

  Outcome solve() override { return solve_with(nullptr); }

  [[nodiscard]] double flops_per_call() const override {
    return flops_ge2bnd(m_, n_);
  }
  [[nodiscard]] double problems_per_call() const override { return 1.0; }
  [[nodiscard]] std::string resolved() const override {
    std::ostringstream o;
    o << "{\"m\":" << m_ << ",\"n\":" << n_ << ",\"nb\":" << nb_
      << ",\"ib\":" << ib_ << ",\"alg\":\""
      << (rbidiag_ ? "RBidiag" : "Bidiag") << "\",\"tiles\":[" << p_ << ","
      << q_ << "],\"threads\":" << kThreads << "}";
    return o.str();
  }

  Layers trace(Tracer& tr, const Budget& b, Outcome& out) override {
    Layers L;
    int request = 0;
    std::vector<double> other;
    auto [plain, traced] = overhead_pairs(tr, b, 0.35, out, request, [&] {
      tbsvd::GesvdTimings t;
      const double t0 = now_s();
      Outcome o = solve_with(&t);
      other.push_back(now_s() - t0 - t.total());
      return o;
    });
    L["trace.overhead_s"] = traced - plain;
    L["core.driver_other_s"] = median(other);

    // Stage replay through each layer's public entry point.
    std::vector<double> pack, ge, bpack, chase, vals, qr_it, mk, graph, busy,
        util, idle;
    std::map<tbsvd::Op, std::vector<double>> kcount, kbusy;
    std::map<std::string, std::pair<long, double>> ktotal;
    double tasks = 0.0, fallbacks = 0.0;
    repeat(b, 0.85, 3, [&] {
      const int root = tr.begin("request", -1, ++request);
      const int ps = tr.begin("tile.pack", root, request);
      tbsvd::TileMatrix T = tbsvd::tile_from_dense_padded<double>(A_.cview(), nb_);
      tr.end(ps);
      const int s = tr.begin("core.ge2bnd", root, request);
      tbsvd::ExecResult r = tbsvd::ge2bnd<double>(T, opts_.ge2bnd);
      tr.end(s);
      // Task times are relative to the executor's run start, which cannot
      // be seen from outside ge2bnd: graph construction precedes the run
      // and the trace copy and graph teardown follow it. The run is placed
      // at the end of the span, so the events are drawn late by the
      // teardown; runtime.graph_overhead_s covers both sides.
      const double ge_dur = tr.spans()[s].dur();
      const double base = tr.spans()[s].t1 - r.seconds;
      for (const tbsvd::TraceEvent& e : r.trace.events()) {
        tr.add({e.name, base + e.t_start, base + e.t_end, s, request, e.worker});
      }
      const int bs = tr.begin("band.band_pack", root, request);
      tbsvd::BandMatrix band = tbsvd::band_from_tiles<double>(T);
      tr.end(bs);
      const int cs = tr.begin("band.bnd2bd", root, request);
      tbsvd::Bidiagonal bd = tbsvd::bnd2bd<double>(band);
      tr.end(cs);
      const int vs = tr.begin("band.bd2val", root, request);
      tbsvd::Bd2valInfo bi;
      std::vector<double> sv = tbsvd::bd2val<double>(bd, opts_.bd2val, &bi);
      tr.end(vs);
      tr.end(root);
      sv.resize(n_);
      out.add(check_values(sv, sigma_, full_tol_eps(n_)), bd2val_ok(bi),
              "layer replay");

      pack.push_back(tr.spans()[ps].dur());
      ge.push_back(ge_dur);
      bpack.push_back(tr.spans()[bs].dur());
      chase.push_back(tr.spans()[cs].dur());
      vals.push_back(tr.spans()[vs].dur());
      qr_it.push_back(static_cast<double>(bi.qr_iterations));
      fallbacks += bi.bisection_fallback ? 1.0 : 0.0;
      const double ms = r.trace.makespan();
      mk.push_back(ms);
      graph.push_back(ge_dur - ms);
      busy.push_back(r.trace.busy_seconds());
      idle.push_back(ms * kThreads - r.trace.busy_seconds());
      util.push_back(r.trace.utilization(kThreads));
      tasks = static_cast<double>(r.ntasks);
      const auto by = r.trace.by_kernel();
      for (tbsvd::Op op : reported_ops()) {
        auto it = by.find(tbsvd::op_name(op));
        kcount[op].push_back(it == by.end() ? 0.0 : it->second.count);
        kbusy[op].push_back(it == by.end() ? 0.0 : it->second.total_seconds);
      }
      for (const auto& [name, st] : by) {
        ktotal[name].first += st.count;
        ktotal[name].second += st.total_seconds;
      }
      const double mismatch = tr.root_mismatch(root);
      if (!(mismatch >= 0.0 && mismatch < 1e-6 * tr.spans()[root].dur())) {
        out.add(failed_check("span self times do not add up to the root"),
                true, "trace");
      }
    });

    std::vector<double> t1;
    repeat(b, 0.95, 2, [&] {
      tbsvd::TileMatrix T = tbsvd::tile_from_dense_padded<double>(A_.cview(), nb_);
      tbsvd::Ge2bndOptions o = opts_.ge2bnd;
      o.nthreads = 1;
      const int root = tr.begin("request", -1, ++request);
      const int s = tr.begin("core.ge2bnd_t1", root, request);
      tbsvd::ge2bnd<double>(T, o);
      tr.end(s);
      tr.end(root);
      t1.push_back(tr.spans()[s].dur());
    });

    const double nb3 = static_cast<double>(nb_) * nb_ * nb_ / 3.0;
    L["tile.pack_s"] = median(pack);
    L["core.ge2bnd_s"] = median(ge);
    L["core.ge2bnd_gflops"] = flops_ge2bnd(m_, n_) / median(ge) * 1e-9;
    L["core.ge2bnd_t1_s"] = median(t1);
    L["core.ge2bnd_par_eff"] = median(t1) / (kThreads * median(ge));
    L["band.band_pack_s"] = median(bpack);
    L["band.bnd2bd_s"] = median(chase);
    L["band.bnd2bd_gflops"] =
        6.0 * n_ * static_cast<double>(n_) * nb_ / median(chase) * 1e-9;
    L["band.bd2val_s"] = median(vals);
    L["band.bd2val_qr_iterations"] = median(qr_it);
    L["band.bisection_fallbacks"] = fallbacks;
    L["runtime.tasks"] = tasks;
    L["runtime.busy_s"] = median(busy);
    L["runtime.idle_s"] = median(idle);
    L["runtime.utilization"] = median(util);
    L["runtime.graph_overhead_s"] = median(graph);
    for (tbsvd::Op op : reported_ops()) {
      const std::string k = std::string("kernels.") + tbsvd::op_name(op);
      L[k + ".count"] = median(kcount[op]);
      L[k + ".busy_s"] = median(kbusy[op]);
      if (op_weight(op) > 0.0) {
        L[k + ".gflops"] = median(kbusy[op]) > 0.0
            ? median(kcount[op]) * op_weight(op) * nb3 / median(kbusy[op]) * 1e-9
            : 0.0;
      }
    }

    // Critical-path model on the same op stream, fed measured mean kernel
    // times.
    tbsvd::AlgConfig cfg;
    cfg.qr_tree = opts_.ge2bnd.qr_tree;
    cfg.lq_tree = opts_.ge2bnd.lq_tree;
    cfg.ncores = kThreads;
    cfg.gamma = opts_.ge2bnd.gamma;
    const std::vector<tbsvd::TileOp> ops =
        rbidiag_ ? tbsvd::build_rbidiag_ops(p_, q_, cfg)
                 : tbsvd::build_bidiag_ops(p_, q_, cfg);
    tbsvd::OpCost cost = [&ktotal](const tbsvd::TileOp& op) {
      auto it = ktotal.find(tbsvd::op_name(op.op));
      return it == ktotal.end() || it->second.first == 0
          ? 0.0 : it->second.second / it->second.first;
    };
    const double sim = tbsvd::simulate_schedule(ops, kThreads, cost).makespan;
    const double cp = tbsvd::analyze_dag(ops, cost).critical_path;
    L["cp.sim_makespan_s"] = sim;
    L["cp.critical_path_s"] = cp;
    L["cp.makespan_over_sim"] = median(mk) / sim;
    L["cp.makespan_over_cp"] = median(mk) / cp;
    return L;
  }

 private:
  Outcome solve_with(tbsvd::GesvdTimings* timings) {
    Outcome o;
    try {
      tbsvd::SvdInfo info;
      const std::vector<double> sv =
          tbsvd::gesvd_values<double>(A_.cview(), opts_, timings, &info);
      o.add(check_values(sv, sigma_, full_tol_eps(n_)), info.ok(),
            "gesvd_values");
    } catch (const std::exception& e) {
      o.add(failed_check(e.what()), true, "gesvd_values threw");
    }
    return o;
  }

  int m_, n_;
  std::vector<double> sigma_;
  Matrix A_;
  tbsvd::GesvdOptions opts_;
  int nb_ = 0, ib_ = 0, p_ = 0, q_ = 0;
  bool rbidiag_ = false;
};

// Top-k values through gesvd_truncated (rsvd_trunc).
class RsvdWorkload final : public Workload {
 public:
  static constexpr int kOversample = 8;  // the library's default

  RsvdWorkload(int m, int n, int k, std::uint64_t seed) : m_(m), n_(n), k_(k) {
    // Top k geometric over two decades, then a gap of 1e-8 below sigma_k.
    sigma_ = geometric_spectrum(n, 1.0);
    const std::vector<double> head = geometric_spectrum(k, 1e2);
    const std::vector<double> tail = geometric_spectrum(n - k, 1e2, 1e-8 * head.back());
    std::copy(head.begin(), head.end(), sigma_.begin());
    std::copy(tail.begin(), tail.end(), sigma_.begin() + k);
    want_.assign(sigma_.begin(), sigma_.begin() + k);
    tol_eps_ = rsvd_tol_eps(n, sigma_, k);
    Rng rng(seed);
    A_ = planted(m, n, sigma_, rng, kReflectors);
    opts_.nthreads = kThreads;
  }

  Outcome solve() override {
    Outcome o;
    try {
      tbsvd::TruncatedSvd r = tbsvd::gesvd_truncated<double>(A_.cview(), k_, opts_);
      o.add(check_values(r.values, want_, tol_eps_), r.info.ok(),
            "gesvd_truncated");
    } catch (const std::exception& e) {
      o.add(failed_check(e.what()), true, "gesvd_truncated threw");
    }
    return o;
  }

  [[nodiscard]] double flops_per_call() const override {
    const double l = k_ + kOversample;
    // Four m x n x l products, a TSQR and thin-Q formation of the n x l
    // power-iteration block and of the m x l sketch.
    return 4.0 * 2.0 * m_ * n_ * l + 2.0 * flops_qr(m_, l) + 2.0 * flops_qr(n_, l);
  }
  [[nodiscard]] double problems_per_call() const override { return 1.0; }
  [[nodiscard]] std::string resolved() const override {
    std::ostringstream o;
    o << "{\"m\":" << m_ << ",\"n\":" << n_ << ",\"k\":" << k_
      << ",\"oversample\":" << kOversample << ",\"power_iters\":"
      << opts_.power_iters << ",\"threads\":" << kThreads << "}";
    return o.str();
  }

  Layers trace(Tracer& tr, const Budget& b, Outcome& out) override {
    Layers L;
    int request = 0;
    auto [plain, traced] = overhead_pairs(tr, b, 0.4, out, request, [this] { return solve(); });
    L["trace.overhead_s"] = traced - plain;

    // The range finder's steps with the driver's shapes and options:
    // Y = A Om, Z = A^T Y, Qz = tsqr(Z), Y = A Qz, Q = tsqr(Y), W = A^T Q.
    const int l = k_ + kOversample;
    Rng rng(0x5EEDULL);
    Matrix Om(n_, l), Y(m_, l), Z(n_, l), W(n_, l);
    for (int j = 0; j < l; ++j)
      for (int i = 0; i < n_; ++i) Om(i, j) = rng.normal();
    tbsvd::TsqrOptions qo;
    qo.nthreads = kThreads;
    std::vector<double> gemm_s, tsqr_s, formq_s;
    repeat(b, 0.95, 3, [&] {
      const int root = tr.begin("request", -1, ++request);
      double g = 0.0, t = 0.0, f = 0.0;
      auto gemm = [&](tbsvd::Trans ta, ConstMatrixView X, MatrixView C) {
        const int s = tr.begin("rsvd.gemm", root, request);
        tbsvd::gemm<double>(ta, tbsvd::Trans::No, 1.0, A_.cview(), X, 0.0, C);
        tr.end(s);
        g += tr.spans()[s].dur();
      };
      auto orth = [&](ConstMatrixView X) {
        int s = tr.begin("rsvd.tsqr", root, request);
        tbsvd::TsqrFactors fac = tbsvd::tsqr<double>(X, qo);
        tr.end(s);
        t += tr.spans()[s].dur();
        s = tr.begin("rsvd.form_q", root, request);
        Matrix Q = tbsvd::tsqr_form_q<double>(fac, kThreads);
        tr.end(s);
        f += tr.spans()[s].dur();
        return Q;
      };
      gemm(tbsvd::Trans::No, Om.cview(), Y.view());
      gemm(tbsvd::Trans::Yes, Y.cview(), Z.view());
      const Matrix Qz = orth(Z.cview());
      gemm(tbsvd::Trans::No, Qz.cview(), Y.view());
      const Matrix Q = orth(Y.cview());
      gemm(tbsvd::Trans::Yes, Q.cview(), W.view());
      tr.end(root);
      gemm_s.push_back(g);
      tsqr_s.push_back(t);
      formq_s.push_back(f);
      const double mismatch = tr.root_mismatch(root);
      if (!(mismatch >= 0.0 && mismatch < 1e-6 * tr.spans()[root].dur())) {
        out.add(failed_check("span self times do not add up to the root"),
                true, "trace");
      }
    });
    L["rsvd.gemm_s"] = median(gemm_s);
    L["rsvd.tsqr_s"] = median(tsqr_s);
    L["rsvd.form_q_s"] = median(formq_s);
    L["rsvd.other_s"] = traced - median(gemm_s) - median(tsqr_s) - median(formq_s);
    return L;
  }

 private:
  int m_, n_, k_;
  std::vector<double> sigma_, want_;
  double tol_eps_ = 0.0;
  Matrix A_;
  tbsvd::GesvdTruncatedOptions opts_;
};

// A mixed batch through batched::svd (batched_mix).
class BatchedWorkload final : public Workload {
 public:
  static constexpr int kBatch = 1024;

  explicit BatchedWorkload(std::uint64_t seed) {
    Rng rng(seed);
    direct_max_cols_ = tbsvd::tune::resolved_direct_max_cols(0, sizeof(double), 48);
    for (int i = 0; i < kBatch; ++i) {
      // Fixed shape pattern, so every seed runs the same mix: 1 in 512 is
      // above the direct cutoff (tiled path), 1 in 8 is wide. A 128 x 64
      // tiled problem costs about 50 direct ones, so the two per batch are
      // about a tenth of its serial work (batched.tiled_work_frac).
      int m = 32, n = 16;
      bool wide = false;
      if (i % 512 == 511) {
        m = 128;
        n = 64;
      } else if (i % 8 == 3) {
        wide = true;
      }
      const double cond = std::pow(10.0, 2.0 + 4.0 * rng.uniform());
      const double smax = 0.5 + 1.5 * rng.uniform();
      sigma_.push_back(geometric_spectrum(n, cond, smax));
      Matrix P = planted(m, n, sigma_.back(), rng, std::min(n, kReflectors));
      if (wide) {
        Matrix Pt(n, m);
        for (int j = 0; j < n; ++j)
          for (int ii = 0; ii < m; ++ii) Pt(j, ii) = P(ii, j);
        P = std::move(Pt);
      }
      flops_ += flops_ge2bnd(m, n);
      (n <= direct_max_cols_ ? direct_ : tiled_).push_back(i);
      mats_.push_back(std::move(P));
    }
    for (const Matrix& P : mats_) views_.push_back(P.cview());
    opts_.nthreads = kThreads;
  }

  Outcome solve() override { return solve_with(opts_); }

  [[nodiscard]] double flops_per_call() const override { return flops_; }
  [[nodiscard]] double problems_per_call() const override { return kBatch; }
  [[nodiscard]] std::string resolved() const override {
    std::ostringstream o;
    o << "{\"problems\":" << kBatch << ",\"direct\":" << direct_.size()
      << ",\"tiled\":" << tiled_.size() << ",\"direct_max_cols\":"
      << direct_max_cols_ << ",\"svd_nb\":" << opts_.svd_nb
      << ",\"threads\":" << kThreads << "}";
    return o.str();
  }

  Layers trace(Tracer& tr, const Budget& b, Outcome& out) override {
    Layers L;
    int request = 0;
    long failed_before = out.failed;
    auto [plain, traced] = overhead_pairs(tr, b, 0.4, out, request, [this] { return solve(); });
    L["trace.overhead_s"] = traced - plain;
    L["batched.failed_problems"] = static_cast<double>(out.failed - failed_before);

    std::vector<double> t1, direct, tiled;
    tbsvd::batched::BatchOptions o1 = opts_;
    o1.nthreads = 1;
    repeat(b, 0.6, 2, [&] {
      const int root = tr.begin("request", -1, ++request);
      const int s = tr.begin("batched.svd_t1", root, request);
      out.merge(solve_with(o1));
      tr.end(s);
      tr.end(root);
      t1.push_back(tr.spans()[s].dur());
    });

    // The two per-problem paths the batch dispatches to, called directly:
    // the direct staging (transpose or copy, then small_svd_values) and the
    // tiled driver with the batch's right-sized options (the tiled members
    // are 128 x 64, not tall enough for the batch's R-first pre-reduction).
    std::size_t stage_elems = 0, sq_elems = 0;
    for (int i : direct_) {
      const std::size_t m = mats_[i].rows(), n = mats_[i].cols();
      stage_elems = std::max(stage_elems, m * n);
      sq_elems = std::max(sq_elems, std::min(m, n) * std::min(m, n));
    }
    std::vector<double> stage(stage_elems), tfac(sq_elems), rbuf(sq_elems);
    repeat(b, 0.95, 2, [&] {
      const int root = tr.begin("request", -1, ++request);
      int s = tr.begin("batched.direct", root, request);
      for (int i : direct_) {
        const Matrix& P = mats_[i];
        const int mw = std::max(P.rows(), P.cols()), nw = std::min(P.rows(), P.cols());
        MatrixView st(stage.data(), mw, nw, mw);
        if (P.rows() < P.cols()) {
          tbsvd::transpose<double>(P.cview(), st);
        } else {
          tbsvd::copy<double>(P.cview(), st);
        }
        tbsvd::Bd2valInfo bi;
        const std::vector<double> sv = tbsvd::batched::small_svd_values<double>(
            st, tfac.data(), rbuf.data(), {}, &bi);
        out.add(check_values(sv, sigma_[i], full_tol_eps(nw)),
                bd2val_ok(bi), "small_svd_values");
      }
      tr.end(s);
      direct.push_back(tr.spans()[s].dur() / direct_.size());
      s = tr.begin("batched.tiled", root, request);
      for (int i : tiled_) {
        const int nw = std::min(mats_[i].rows(), mats_[i].cols());
        tbsvd::GesvdOptions go;
        go.nb = std::min(opts_.svd_nb, nw);
        go.ge2bnd.ib = std::min(8, go.nb);
        go.ge2bnd.serial = true;
        tbsvd::SvdInfo info;
        const std::vector<double> sv =
            tbsvd::gesvd_values<double>(mats_[i].cview(), go, nullptr, &info);
        out.add(check_values(sv, sigma_[i], full_tol_eps(nw)), info.ok(),
                "tiled gesvd_values");
      }
      tr.end(s);
      tr.end(root);
      tiled.push_back(tr.spans()[s].dur() / tiled_.size());
    });

    const double serial_work =
        median(direct) * direct_.size() + median(tiled) * tiled_.size();
    L["batched.t1_s"] = median(t1);
    L["batched.par_eff"] = median(t1) / (kThreads * plain);
    L["batched.direct_us_per_problem"] = median(direct) * 1e6;
    L["batched.tiled_us_per_problem"] = median(tiled) * 1e6;
    L["batched.dispatch_overhead_s"] = plain - serial_work / kThreads;
    L["batched.tiled_work_frac"] = median(tiled) * tiled_.size() / serial_work;
    return L;
  }

 private:
  Outcome solve_with(const tbsvd::batched::BatchOptions& o) {
    Outcome out;
    try {
      const tbsvd::batched::SvdBatchResult r = tbsvd::batched::svd<double>(views_, o);
      for (int i = 0; i < kBatch; ++i) {
        const int nw = std::min(mats_[i].rows(), mats_[i].cols());
        out.add(check_values(r.values[i], sigma_[i], full_tol_eps(nw)),
                r.reports[i].ok(), "problem " + std::to_string(i));
      }
    } catch (const std::exception& e) {
      for (int i = 0; i < kBatch; ++i) {
        out.add(failed_check(e.what()), true, "batched::svd threw");
      }
    }
    return out;
  }

  std::vector<Matrix> mats_;
  std::vector<ConstMatrixView> views_;
  std::vector<std::vector<double>> sigma_;
  std::vector<int> direct_, tiled_;
  int direct_max_cols_ = 0;
  double flops_ = 0.0;
  tbsvd::batched::BatchOptions opts_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "square_ge2val")
    return std::make_unique<Ge2valWorkload>(1024, 1024, 1e6, seed);
  if (name == "tall_ge2val")
    return std::make_unique<Ge2valWorkload>(16384, 256, 1e6, seed);
  if (name == "rsvd_trunc")
    return std::make_unique<RsvdWorkload>(16384, 1024, 64, seed);
  if (name == "batched_mix") return std::make_unique<BatchedWorkload>(seed);
  return nullptr;
}

// --------------------------------------------------------- the modes ---

/// The measured program must be the library's defaults: refuse to time
/// anything when a calibration is, or would be, active.
bool calibration_isolated(std::string& why) {
  if (const char* f = std::getenv("TBSVD_TUNE_FILE"); f != nullptr) {
    why = std::string("TBSVD_TUNE_FILE is set (") + f + ")";
    return false;
  }
  const std::string path = tbsvd::tune::default_tune_path();
  if (std::ifstream(path).good()) {
    why = "a calibration file would be loaded from " + path;
    return false;
  }
  if (tbsvd::tune::active() != nullptr) {
    why = "a calibration is active";
    return false;
  }
  return true;
}

std::string stamp_json(double fma_peak) {
  std::ostringstream o;
  o << "{\"host\":" << json_str(tbsvd::tune::host_fingerprint())
    << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
    << ",\"isa\":" << json_str(isa_macros())
    << ",\"fma_peak_gflops\":" << json_num(fma_peak) << "}";
  return o.str();
}

void print_outcome_fields(std::ostringstream& o, const Outcome& out) {
  o << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
    << ",\"err_eps\":" << json_num(out.err_eps)
    << ",\"why\":" << json_str(out.why);
}

int run_measure(Workload& w, double seconds, bool cold_only) {
  double t0 = now_s();
  Outcome out = w.solve();
  const double cold = now_s() - t0;
  std::vector<double> samples;
  if (!cold_only) {
    const double start = now_s();
    while (samples.empty() || now_s() - start < seconds) {
      t0 = now_s();
      const Outcome o = w.solve();
      samples.push_back(now_s() - t0);
      out.merge(o);
    }
  }
  std::ostringstream o;
  o << "{\"mode\":\"" << (cold_only ? "cold" : "measure") << "\",\"cold_s\":"
    << json_num(cold) << ",\"samples_s\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    o << (i ? "," : "") << json_num(samples[i]);
  }
  o << "],\"flops_per_call\":" << json_num(w.flops_per_call())
    << ",\"problems_per_call\":" << json_num(w.problems_per_call())
    << ",\"peak_rss_mb\":" << json_num(peak_rss_mb())
    << ",\"resolved\":" << w.resolved();
  print_outcome_fields(o, out);
  if (!cold_only) o << ",\"stamp\":" << stamp_json(fma_peak_gflops());
  o << "}";
  std::printf("%s\n", o.str().c_str());
  return 0;
}

int run_trace(Workload& w, double seconds, const std::string& trace_out) {
  Outcome out = w.solve();  // warm-up, checked but not timed
  Tracer tr;
  Budget b;
  b.seconds = seconds;
  Layers L = w.trace(tr, b, out);
  const double fma = fma_peak_gflops();
  const int nb = tbsvd::tune::resolved_nb(0, sizeof(double), 64);
  L["lac.fma_peak_gflops"] = fma;
  L["lac.gemm_tile_gflops"] = gemm_gflops(nb, nb, nb, 0.3, 11);
  L["lac.gemm_sketch_gflops"] = gemm_gflops(16384, 72, 1024, 0.3, 12);
  L["lac.gemm_tile_frac_peak"] = L["lac.gemm_tile_gflops"] / fma;
  const bool wrote = trace_out.empty() || tr.write_chrome(trace_out);

  std::ostringstream o;
  o << "{\"mode\":\"trace\",\"layers\":{";
  bool first = true;
  for (const auto& [k, v] : L) {
    o << (first ? "" : ",") << json_str(k) << ":" << json_num(v);
    first = false;
  }
  o << "},\"spans\":" << tr.spans().size() << ",\"trace_file\":"
    << json_str(wrote ? trace_out : "") << ",\"resolved\":" << w.resolved()
    << ",\"stamp\":" << stamp_json(fma);
  print_outcome_fields(o, out);
  o << "}";
  std::printf("%s\n", o.str().c_str());
  return 0;
}

/// Checks of the benchmark's own machinery; prints one JSON line and
/// returns non-zero when any fails.
int run_selftest() {
  std::vector<std::string> failures;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) failures.push_back(what);
  };

  // A correct spectrum passes; one perturbed beyond the tolerance, a short
  // one, or a NaN is counted as failed.
  const std::vector<double> sigma = geometric_spectrum(64, 1e6);
  expect(check_values(sigma, sigma, full_tol_eps(64)).ok, "exact spectrum passes");
  std::vector<double> bad = sigma;
  bad[10] += 2.0 * full_tol_eps(64) * kEps;
  Outcome out;
  out.add(check_values(bad, sigma, full_tol_eps(64)), true, "perturbed");
  expect(out.failed == 1 && out.attempted == 1, "perturbed spectrum counts as failed");
  bad = sigma;
  bad[3] = std::nan("");
  expect(!check_values(bad, sigma, full_tol_eps(64)).ok, "NaN value fails");
  bad.resize(10);
  expect(!check_values(bad, sigma, full_tol_eps(64)).ok, "short result fails");

  // A real solve through the driver passes, and the same result perturbed
  // fails.
  Rng rng(7);
  const Matrix A = planted(256, 128, geometric_spectrum(128, 1e6), rng, kReflectors);
  tbsvd::GesvdOptions opts;
  opts.ge2bnd.alg = tbsvd::BidiagAlg::Auto;
  std::vector<double> sv = tbsvd::gesvd_values<double>(A.cview(), opts);
  const std::vector<double> want = geometric_spectrum(128, 1e6);
  expect(check_values(sv, want, full_tol_eps(128)).ok, "planted solve passes");
  sv[0] *= 1.0 + 1e-12;
  expect(!check_values(sv, want, full_tol_eps(128)).ok, "perturbed solve fails");

  // Self times of a synthetic tree: a sequential stage, a stage with
  // overlapping worker-lane task events and a gap, add up to the root.
  Tracer tr;
  tr.add({"request", 0.0, 10.0, -1, 1, -1});
  tr.add({"stage.a", 0.5, 2.0, 0, 1, -1});
  const int g = tr.add({"stage.b", 2.0, 9.0, 0, 1, -1});
  tr.add({"task", 2.5, 5.0, g, 1, 0});
  tr.add({"task", 3.0, 6.0, g, 1, 1});
  tr.add({"task", 7.0, 8.0, g, 1, 0});
  const std::vector<double> self = tr.self_times();
  expect(std::fabs(self[0] - 1.5) < 1e-12, "root self time");
  expect(std::fabs(self[g] - 2.5) < 1e-12, "self time minus task union");
  expect(tr.root_mismatch(0) >= 0.0 && tr.root_mismatch(0) < 1e-12,
         "self times add up to the root");
  tr.add({"stage.c", 8.5, 11.0, 0, 1, -1});
  expect(tr.root_mismatch(0) < 0.0, "child outside its parent is detected");

  std::ostringstream o;
  o << "{\"mode\":\"selftest\",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    o << (i ? "," : "") << json_str(failures[i]);
  }
  o << "]}";
  std::printf("%s\n", o.str().c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    args[argv[i] + 2] = argv[i + 1];
  }
  const std::string mode = args.count("mode") ? args["mode"] : "";
  if (mode == "selftest") return run_selftest();

  std::string why;
  if (!calibration_isolated(why)) {
    std::fprintf(stderr, "tbsvd_perf: refusing to run: %s\n", why.c_str());
    return 3;
  }
  std::unique_ptr<Workload> w;
  double seconds = 0.0;
  try {
    seconds = std::stod(args.at("seconds"));
    w = make_workload(args.at("workload"), std::stoull(args.at("seed")));
  } catch (const std::exception&) {
    w = nullptr;
  }
  if (w == nullptr || !(seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: tbsvd_perf --workload W --seed N --seconds S "
                 "--mode measure|cold|trace|selftest [--trace-out F]\n");
    return 2;
  }
  if (mode == "measure" || mode == "cold") {
    return run_measure(*w, seconds, mode == "cold");
  }
  if (mode == "trace") {
    return run_trace(*w, seconds, args.count("trace-out") ? args["trace-out"] : "");
  }
  std::fprintf(stderr, "tbsvd_perf: unknown mode '%s'\n", mode.c_str());
  return 2;
}
