// Tile-superscalar task graph: tasks declare which data they Read / Write /
// ReadWrite; true dependencies are derived so that the parallel execution is
// equivalent to executing tasks in submission order (sequential consistency),
// exactly the contract PARSEC gives DPLASMA's algorithm writers.
//
// Usage:
//   TaskGraph g;
//   g.submit("GEQRT", [=]{ ... }, {{akk, Access::ReadWrite},
//                                  {tkk, Access::Write}}, /*priority=*/10);
//   g.run(nthreads);   // or g.run_serial() for a reference execution
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <unordered_map>
#include <vector>

#include "runtime/trace.hpp"

namespace tbsvd {

enum class Access : std::uint8_t { Read, Write, ReadWrite };

/// One declared data access. The key is any stable address identifying the
/// datum (e.g. a tile's base pointer); the runtime never dereferences it.
struct DataRef {
  const void* key;
  Access access;
};

/// Derives superscalar dependencies from a stream of task data-access
/// declarations. Shared between the execution runtime (TaskGraph) and the
/// critical-path analyzer (cp/dag_analysis), so both see identical DAGs.
class DepTracker {
 public:
  /// Registers task `id`'s accesses; appends the ids of its predecessors
  /// (deduplicated) to `preds`.
  void register_task(int id, const DataRef* refs, std::size_t nrefs,
                     std::vector<int>& preds);

  void clear() { state_.clear(); }

 private:
  struct DataState {
    int last_writer = -1;
    std::vector<int> readers;  // readers since last_writer
  };
  std::unordered_map<const void*, DataState> state_;
};

/// Multiply-adds of evenly divisible work each started worker should
/// carry: starting a run's workers (thread spawn and join) costs ~40 us on
/// a 4-core Xeon VM, about the time 2^19 multiply-adds of serial gemm take
/// there, so smaller shares lose more to start-up than they gain.
inline constexpr long long kMinFmaPerWorker = 1LL << 19;

/// Workers worth starting for `fma` multiply-adds of evenly divisible work,
/// in [1, nthreads] (nthreads >= 1); 1 means run on the calling thread.
[[nodiscard]] inline int workers_for(long long fma, int nthreads) {
  return static_cast<int>(
      std::clamp<long long>(fma / kMinFmaPerWorker, 1, nthreads));
}

/// Static task DAG with named tasks, priorities and trace collection.
class TaskGraph {
 public:
  using TaskFn = std::function<void()>;

  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Submit a task. Higher priority runs earlier among ready tasks.
  /// Returns the task id (submission index).
  int submit(const char* name, TaskFn fn, std::initializer_list<DataRef> refs,
             int priority = 0);
  int submit(const char* name, TaskFn fn, const std::vector<DataRef>& refs,
             int priority = 0);

  [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }

  /// Execute with `num_threads` workers (>= 1). Blocks until completion.
  /// May be called once per graph.
  void run(int num_threads);

  /// Execute sequentially in submission order (reference semantics).
  void run_serial();

  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

  /// Read-only structural access (used by tests and the DAG analyzer).
  [[nodiscard]] const std::vector<int>& successors(int id) const {
    return tasks_[id].successors;
  }
  [[nodiscard]] int indegree(int id) const { return tasks_[id].indegree; }
  [[nodiscard]] const char* name(int id) const { return tasks_[id].name; }
  [[nodiscard]] int priority(int id) const { return tasks_[id].priority; }

 private:
  friend class Scheduler;

  struct Task {
    TaskFn fn;
    const char* name = "";
    int priority = 0;
    int indegree = 0;
    std::vector<int> successors;
  };

  int submit_impl(const char* name, TaskFn fn, const DataRef* refs,
                  std::size_t nrefs, int priority);

  std::deque<Task> tasks_;
  DepTracker deps_;
  std::vector<int> pred_scratch_;
  Trace trace_;
  bool executed_ = false;
};

}  // namespace tbsvd
