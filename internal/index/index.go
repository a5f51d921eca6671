// Package index defines the common interface every persistent index in
// this repository implements — CCL-BTree and its ablation variants, the
// six tree baselines (§5.1) and the two log-structured stores (Table 3)
// — plus a conformance suite the baselines share.
//
// All indexes run on the same pmem device model, flush with the same
// primitives, and are driven through per-goroutine handles, so the
// benchmark harness can measure any of them interchangeably.
package index

import "cclbtree/internal/pmem"

// KV is one key/value pair. Key 0 is reserved (nil sentinel); value 0
// is reserved as the tombstone in indexes that need one.
type KV struct {
	Key, Value uint64
}

// Index is a persistent key-value index instance.
type Index interface {
	// Name identifies the index in benchmark output ("CCL-BTree",
	// "FAST&FAIR", ...).
	Name() string
	// NewHandle creates a per-goroutine operation handle bound to a
	// NUMA socket. Handles must not be shared between goroutines.
	NewHandle(socket int) Handle
	// MemoryUsage reports modeled DRAM bytes and PM bytes in use
	// (Fig 18).
	MemoryUsage() (dramBytes, pmBytes int64)
	// Close stops any background activity (GC, compaction).
	Close()
}

// Handle issues operations against an Index on behalf of one goroutine.
type Handle interface {
	// Upsert inserts or updates a pair.
	Upsert(key, value uint64) error
	// Lookup returns the value for key.
	Lookup(key uint64) (uint64, bool)
	// Delete removes key.
	Delete(key uint64) error
	// Scan fills out with up to max live entries with key ≥ start in
	// ascending order, returning the count.
	Scan(start uint64, max int, out []KV) int
	// Thread exposes the handle's PM thread (virtual clock).
	Thread() *pmem.Thread
}

// Factory builds an index on a pool. Workloads bind handles to the
// pool's sockets (NewHandle).
type Factory func(pool *pmem.Pool) (Index, error)
