#pragma once
// Software-prefetch shim for the batch-sweep hot paths. The working-set
// sweeps walk segments in a statically known order (S[k] then S[k+1]), so
// the next segment's header/root line can be requested while the current
// one is being processed — the only prefetch the access pattern makes
// profitable, since tree descent paths are data-dependent.
//
// No-ops on compilers without __builtin_prefetch; never changes semantics.

namespace pwss::util {

/// Read prefetch into all cache levels (temporal locality hint 3).
inline void prefetch_read(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace pwss::util
