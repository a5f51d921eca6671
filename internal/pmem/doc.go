// Package pmem is a software model of a persistent-memory system built
// from Optane-DCPMM-like devices, faithful to the architecture described
// in §2.1 of the CCL-BTree paper (EuroSys '24):
//
//	CPU cache (64 B cachelines, volatile under ADR)
//	   │ clwb / sfence
//	   ▼
//	WPQ + XPBuffer (write-combining, 256 B XPLines, power-fail protected)
//	   │ 256 B read-modify-write
//	   ▼
//	3D-XPoint media
//
// The model provides three things the real hardware provides and Go does
// not:
//
//  1. Persistence semantics. Stores are volatile until flushed and fenced
//     (ADR mode). Pool.Crash simulates a power failure: every store that
//     was not both flushed and fenced (or evicted by the cache model) is
//     rolled back, everything else survives. eADR mode persists stores
//     immediately. Like a power cycle, Crash also restarts every DIMM's
//     bandwidth arbiter idle, so threads created after it start at
//     virtual time zero on idle media, exactly as on a pool rebuilt by
//     LoadPersistent.
//
//  2. Hardware counters. Like ipmctl on real Optane, the pool counts
//     bytes arriving at the XPBuffer (cacheline flushes) and bytes
//     written to media (XPLine write-backs), from which the harness
//     computes CLI- and XBI-amplification exactly as defined in §2.1.
//     Every byte is charged to the issuing thread's Scope (PushScope),
//     the one attribution axis: the per-scope buckets partition media
//     writes exactly, so experiments split amplification by cause (WAL
//     vs metadata vs everything that maintains leaves, Fig 13b).
//
//  3. A virtual-time cost model. Every access charges a latency to the
//     issuing Thread, and every media-level XPLine operation occupies its
//     DIMM for a service time through a shared bandwidth arbiter. With
//     many threads the media becomes the bottleneck and throughput is
//     bounded by the number of XPLine flushes, not cacheline flushes —
//     the central observation of §2.2 (Fig 2).
//
// The model's own bookkeeping allocates nothing per access in steady
// state, and its entries have no life cycle to get wrong:
//
//   - A dirty cacheline's entry (lineEntry: the pre-image a crash
//     restores) lives by value in its shard's map, whose slot storage
//     is reused as lines are committed and dirtied. Nothing ever holds
//     a *lineEntry: readers copy an entry out and writers store a whole
//     entry back, both only under the shard's lock (lineShard.mu), so
//     a slot reused for another line is unreachable through any stale
//     reference.
//   - A flush awaiting its fence (pendingFlush) carries its 8-word
//     snapshot by value in Thread.pending, a slice truncated rather
//     than freed at each fence. By value, so the snapshot cannot alias
//     an entry that was committed and reused before the fence retires.
//   - Each DIMM's XPBuffer draws its entries (xpEntry) from a slab of
//     XPBufferLines; a fill at capacity overwrites its LRU victim's
//     entry in place. Entries are touched only under the DIMM's lock.
//
// All data access is 8-byte-word granular and atomic, which matches how
// persistent indexes program real PM (8 B failure-atomic stores) and keeps
// optimistic concurrency race-free under the Go memory model.
//
// # Persistence contract
//
// Code using this package must obey the discipline real ADR hardware
// imposes; the static analyzer (cmd/persistlint) and the StrictPersist
// runtime checks enforce complementary halves of it:
//
//   - Every Store/WriteRange that must survive a crash is followed by a
//     Flush of the covering cachelines and then a Fence (or a single
//     Persist) before the enclosing operation declares success. A store
//     without a reachable flush is volatile until the cache model
//     happens to evict it (persistlint rule PL001).
//
//   - A Flush alone orders nothing: the write-back becomes durable only
//     at the next Fence on the same Thread. Flush with no following
//     Fence/Persist is an unretired clwb (rule PL002; at runtime,
//     Thread.Release and Pool.Close panic on nonempty pending sets).
//
//   - Under eADR, flushes are unnecessary — stores are durable once
//     globally visible — so a Flush or Persist that executes only on an
//     eADR-mode branch is dead code (rule PL003). Branching on the mode
//     to *skip* flushes is the intended pattern and is not flagged.
//
//   - A Thread is a single-owner handle. It may be handed from one
//     goroutine to another, but never used by two at once; its pending
//     flush set and virtual clock are unsynchronized by design (rule
//     PL004 catches escapes into goroutine closures and channel sends;
//     StrictPersist catches dynamic overlap).
//
// Addresses passed to Load/Store/ReadRange/WriteRange must be 8-byte
// aligned; in strict mode unaligned addresses panic instead of being
// silently truncated to the containing word.
//
// Config.StrictPersist arms the runtime half: Thread.Release panics if
// flushes are pending, Pool.Close panics on pending flushes or dirty
// cachelines outside regions declared scratch with Pool.DeclareVolatile,
// and concurrent Thread use panics with both call sites identified.
// Test suites should run strict; production-shaped benchmarks leave it
// off to keep the hot paths branch-cheap.
package pmem
