// Negative-compilation probe for the thread-safety analysis.
//
// A miniature of serve::ResponseCache::get ("lookup") on one shard: a
// counter field guarded by the shard's util::Mutex.  Compiled twice by a configure-time try_compile in
// tests/CMakeLists.txt (clang only):
//
//   -DRS_TSA_TAKE_LOCK=1   the faithful version, MutexLock held
//                          -> MUST compile (positive control)
//   (no define)            the same lookup with the MutexLock deliberately
//                          removed -> MUST FAIL under
//                          -Wthread-safety -Werror=thread-safety-analysis
//
// If the second variant ever compiles, the analysis has stopped enforcing
// the lock discipline (macros expanding to nothing under clang, flag lost
// from rs_harden, ...) and the configure step aborts.
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace {

struct MiniCacheShard {
  rs::util::Mutex mutex;
  int hits RS_GUARDED_BY(mutex) = 0;

  int lookup() RS_EXCLUDES(mutex) {
#if defined(RS_TSA_TAKE_LOCK)
    const rs::util::MutexLock lock(mutex);
#endif
    return ++hits;
  }
};

}  // namespace

int main() {
  MiniCacheShard shard;
  return shard.lookup() == 1 ? 0 : 1;
}
