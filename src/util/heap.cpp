#include "util/heap.hpp"

#include <cstddef>  // for __GLIBC__

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace bonsai {

void release_free_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace bonsai
