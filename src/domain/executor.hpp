// Per-rank executor: one persistent driver thread per rank ("lane"), the
// in-process analogue of one MPI process' host thread. Each lane runs its
// rank's whole step pipeline — sort → build → LET export → local gravity →
// per-arrival remote gravity — so ranks proceed independently and only meet
// at the step boundary, where the Simulation collects the lanes' completion
// futures. Lanes are single-thread ThreadPools, and each lane thread is one
// of its rank's Device threads: it computes the stages itself, with the
// Device's workers joining its parallel loops (a one-thread rank has none),
// and blocks in the LET mailbox while other ranks compute.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "device/thread_pool.hpp"

namespace bonsai::domain {

class Executor {
 public:
  explicit Executor(std::size_t num_lanes);

  std::size_t num_lanes() const { return lanes_.size(); }

  // Enqueue a job on one lane; jobs on the same lane run in submission order.
  // The future becomes ready when the job returns.
  std::future<void> run(std::size_t lane, std::function<void()> job);

 private:
  std::vector<std::unique_ptr<ThreadPool>> lanes_;
};

}  // namespace bonsai::domain
