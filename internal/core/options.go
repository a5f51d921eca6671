// Package core implements CCL-BTree (EuroSys '24): a crash-consistent,
// locality-aware B+-tree for persistent memory built from three
// techniques — leaf-node-centric buffering (§3.2), write-conservative
// logging (§3.3), and locality-aware garbage collection (§3.4) — on top
// of this repository's PM device model.
//
// Layout (Fig 6): inner nodes and per-leaf buffer nodes live in DRAM;
// 256 B leaf nodes (one XPLine each) and the per-thread write-ahead logs
// live in PM. Keys are unsorted inside a buffer node or leaf but ordered
// between adjacent leaves, preserving range-query performance.
package core

import (
	"fmt"

	"cclbtree/internal/obs"
)

// GCPolicy selects the log reclamation strategy (§3.4 / Fig 14).
type GCPolicy int

const (
	// GCLocalityAware is the paper's design: flip the global epoch,
	// copy still-unflushed entries from buffer nodes to I-logs in an
	// append-only manner, then recycle the B-log chunks. Foreground
	// threads keep running throughout.
	GCLocalityAware GCPolicy = iota
	// GCNaive stops the world and flushes every buffered KV to its
	// leaf (random PM writes), the strawman the paper measures a 37.5%
	// throughput dip against.
	GCNaive
	// GCOff never reclaims (the "w/o GC" baseline of Fig 14).
	GCOff
)

func (p GCPolicy) String() string {
	switch p {
	case GCLocalityAware:
		return "locality-aware"
	case GCNaive:
		return "naive"
	case GCOff:
		return "off"
	}
	return "unknown"
}

// Options configures a Tree. The zero value is usable: every field
// defaults to the paper's setting.
type Options struct {
	// Nbatch is the number of KV slots per buffer node (default 2,
	// §5.4 Table 1). Nbatch = 0 disables buffering entirely: every
	// insert goes straight to the leaf in one flush, which is the
	// "Base" configuration of the Fig 13 ablation (it also disables
	// logging — with no volatile buffer there is nothing to protect).
	Nbatch int
	// THlog is the GC trigger threshold: reclaim when log bytes exceed
	// THlog × leaf bytes (default 0.20, §5.4 Table 2).
	THlog float64
	// GC selects the reclamation policy (default locality-aware).
	GC GCPolicy
	// NaiveLogging logs every insertion including trigger writes — the
	// "+BNode" ablation configuration. The default (false) is
	// write-conservative logging ("+WLog"): trigger writes skip the
	// log because they are immediately flushed with the batch.
	NaiveLogging bool
	// ChunkBytes is the WAL chunk size (default 4 MB).
	ChunkBytes int
	// VarKV switches keys and values to variable-size byte strings
	// stored out-of-band and referenced through 8 B indirection
	// pointers (§4.4 Optimization #3). Key comparisons then chase the
	// pointers, exactly the overhead Fig 15b measures.
	VarKV bool
	// DirSlots is the capacity of the persistent log-chunk directory
	// used by recovery (default 4096 chunks = 16 GB of logs at 4 MB).
	DirSlots int
	// Metrics enables per-operation latency histograms (Tree.Metrics).
	// Off by default: when off, workers carry no obs handle and the hot
	// paths do no histogram work.
	Metrics bool
	// Tracer, when non-nil, receives operation/flush/split/GC events.
	// Callers usually also install Tracer.DeviceHook on the pool to
	// capture eviction events. A nil (or disabled) tracer costs one
	// atomic load per event site.
	Tracer *obs.Tracer
	// UnsafeSkipWALFence makes every worker's WAL appends skip the
	// sfence (see wal.Log.UnsafeSkipFence): a deliberate durability bug
	// used exclusively to prove the torture oracle catches real
	// violations. Never set it outside oracle self-tests.
	UnsafeSkipWALFence bool
	// UnsafeSkipReadRecheck makes optimistic readers ignore the result
	// of their seqlock re-validation, so torn reads racing a concurrent
	// writer are returned as if consistent: a deliberate
	// read-linearizability bug used exclusively to prove the torture
	// oracle's read checks catch real violations. Never set it outside
	// oracle self-tests.
	UnsafeSkipReadRecheck bool
	// HomeSocket is the NUMA socket the tree is pinned to: its
	// superblock, chunk directory, head leaf, GC worker and recovery
	// threads all live there (default 0, today's layout). The sharded DB
	// frontend assigns shard trees round-robin across sockets so each
	// shard's metadata and background traffic stay NUMA-local.
	HomeSocket int
	// ArenaIndex/ArenaCount place the tree in one of ArenaCount equal
	// per-socket PM arenas (see pmalloc.NewArena), so several trees —
	// the shards of one DB — can share a pool and still recover
	// independently after a whole-pool crash. The zero value (arena 0 of
	// 1) is the classic whole-device layout. The superblock records the
	// placement; Open rejects a mismatch rather than silently reading
	// another arena's (or the whole device's) superblock.
	ArenaIndex int
	ArenaCount int
}

const (
	defaultNbatch   = 2
	defaultTHlog    = 0.20
	defaultDirSlots = 4096
	// defaultOrdo is the cross-socket timestamp uncertainty window in
	// ticks.
	defaultOrdo = 16
)

func (o Options) withDefaults() (Options, error) {
	if o.Nbatch == 0 {
		o.Nbatch = defaultNbatch
	}
	if o.Nbatch < 0 {
		o.Nbatch = 0 // explicit "Base" request
	}
	if o.Nbatch > maxNbatch {
		return o, fmt.Errorf("core: Nbatch %d exceeds maximum %d", o.Nbatch, maxNbatch)
	}
	if o.THlog <= 0 {
		o.THlog = defaultTHlog
	}
	if o.ChunkBytes == 0 {
		o.ChunkBytes = 4 << 20
	}
	if o.DirSlots == 0 {
		o.DirSlots = defaultDirSlots
	}
	if o.ArenaCount == 0 {
		o.ArenaCount = 1
	}
	if o.ArenaCount < 1 || o.ArenaIndex < 0 || o.ArenaIndex >= o.ArenaCount {
		return o, fmt.Errorf("core: arena %d of %d impossible", o.ArenaIndex, o.ArenaCount)
	}
	if o.ArenaCount > maxArenaFlag || o.ArenaIndex > maxArenaFlag {
		return o, fmt.Errorf("core: arena %d of %d exceeds the superblock's 16-bit placement fields", o.ArenaIndex, o.ArenaCount)
	}
	if o.HomeSocket < 0 {
		return o, fmt.Errorf("core: home socket %d negative", o.HomeSocket)
	}
	return o, nil
}

// maxArenaFlag bounds the arena placement encoded in the superblock's
// flags word (16 bits each for index and count).
const maxArenaFlag = 0xffff

// maxNbatch bounds the buffer node's slot count so the packed header
// (position counter + per-slot epoch bits) fits comfortably; the paper
// evaluates 1–5.
const maxNbatch = 16
