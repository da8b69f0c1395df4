// Returning freed heap pages to the OS between simulations.
//
// A rank pipeline frees and reallocates its large buffers (particle arrays,
// octree storage, LET frames, the LET cache's trees and history arrays)
// every step, from several lane and device threads. glibc serves those
// threads from per-thread arenas and keeps freed arena pages resident, and
// which arena a new thread gets depends on thread start order. A process
// that runs one simulation after another (the job server, a setup/measure
// harness) therefore peaks at the new simulation's live set on top of the
// old one's leftover pages, by an amount that changes from run to run.
#pragma once

namespace bonsai {

// Returns the free pages of every heap arena to the OS (glibc malloc_trim).
// Thread-safe; a no-op without glibc.
void release_free_heap();

// Calls release_free_heap() when destroyed. Declared as a class's first
// member it is destroyed last, after every buffer the other members held.
class ReleaseHeapOnDestroy {
 public:
  ReleaseHeapOnDestroy() = default;
  ~ReleaseHeapOnDestroy() { release_free_heap(); }
  ReleaseHeapOnDestroy(const ReleaseHeapOnDestroy&) = delete;
  ReleaseHeapOnDestroy& operator=(const ReleaseHeapOnDestroy&) = delete;
};

}  // namespace bonsai
