// Package cclbtree is a Go implementation of CCL-BTree, the
// crash-consistent locality-aware B+-tree for persistent memory from
// EuroSys '24 ("CCL-BTree: A Crash-Consistent Locality-Aware B+-Tree
// for Reducing XPBuffer-Induced Write Amplification in Persistent
// Memory", Li et al.).
//
// Because Go exposes neither cacheline-flush instructions nor Optane
// hardware, the tree runs on a software persistent-memory device model
// (see internal/pmem) that reproduces the two-level write-amplification
// behaviour of real PM: a CPU-cache/flush layer (64 B cachelines, ADR
// semantics) over an XPBuffer/media layer (256 B XPLines). The model
// provides ipmctl-style hardware counters, power-failure injection, and
// a virtual-time cost model, so the paper's experiments — and your own
// workloads — can be measured for CLI-/XBI-amplification and simulated
// throughput.
//
// A DB owns one or more CCL-BTrees. With the default Config.Shards of
// 1 it is exactly the paper's single tree; with N > 1 it carves the
// pool into N per-socket PM arenas and runs one independent tree per
// arena, each pinned to a NUMA socket round-robin, routing every
// operation by key hash. Range and RangeVar merge the shard streams
// back into one ordered iterator. The sharded form is the storage
// layer of the serving tier (internal/server, cmd/cclserve).
//
// Quick start:
//
//	db, _ := cclbtree.New(cclbtree.Config{})
//	s := db.Session(0)                  // one Session per goroutine
//	_ = s.Put(42, 1000)
//	v, ok := s.Get(42)                  // 1000, true
//	db.Pool().Crash()                   // power failure
//	db2, _ := cclbtree.Open(db.Pool(), cclbtree.Config{})
//	v, ok = db2.Session(0).Get(42)      // still 1000, true
package cclbtree

import (
	"fmt"

	"cclbtree/internal/core"
	"cclbtree/internal/obs"
	"cclbtree/internal/pmem"
)

// GCPolicy selects the log-reclamation strategy.
type GCPolicy = core.GCPolicy

// GC policies (§3.4 of the paper; GCNaive and GCOff exist for the
// ablation experiments).
const (
	GCLocalityAware = core.GCLocalityAware
	GCNaive         = core.GCNaive
	GCOff           = core.GCOff
)

// Config configures a DB and, optionally, the PM platform under it.
// The zero value reproduces the paper's defaults (one shard, Nbatch 2,
// THlog 20%, locality-aware GC, 4 MB log chunks, two-socket ADR
// platform).
type Config struct {
	// Shards is the number of independent shard trees the DB runs
	// (0 and 1 both mean one tree covering the whole device, today's
	// behaviour). With N > 1 the pool is carved into N equal per-socket
	// PM arenas; shard i lives in arena i, NUMA-pinned to socket
	// i mod Sockets (superblock, WAL chunks, leaves, GC and recovery
	// all stay on that socket), and keys route to shards by hash.
	// The shard count is recorded persistently: Open with Shards 0
	// auto-detects it, Open with a mismatched count fails.
	Shards int
	// Nbatch is the buffer-node capacity, at most 8; 0 means the
	// default (2), -1 disables buffering (the paper's "Base" ablation).
	Nbatch int
	// THlog is the GC trigger ratio (log bytes / leaf bytes); 0 means
	// the default 0.20.
	THlog float64
	// GC selects the reclamation policy.
	GC GCPolicy
	// NaiveLogging logs trigger writes too (the "+BNode" ablation);
	// default is write-conservative logging.
	NaiveLogging bool
	// VarKV switches the tree to variable-size []byte keys and values
	// (PutVar/GetVar/...). Fixed 8 B operations are rejected.
	VarKV bool
	// ChunkBytes overrides the WAL chunk size (default 4 MB).
	ChunkBytes int
	// Metrics enables per-operation latency histograms, retrievable
	// via DB.Metrics. Off by default (zero overhead when off).
	Metrics bool
	// Tracer, when non-nil, receives ring-buffer events from the tree
	// (inserts, flushes, splits, GC rounds, ...). Enable it with
	// Tracer.Enable; a disabled tracer costs one atomic load per event
	// site. Pair with Pool().SetDeviceTracer(tracer.DeviceHook()) to
	// interleave device-level eviction events.
	Tracer *obs.Tracer
	// Platform overrides the PM device model configuration; zero
	// fields take defaults (two sockets, 4 DIMMs each, 256 MB/socket).
	Platform pmem.Config
}

// DB is a CCL-BTree store: a set of Config.Shards independent shard
// trees on one PM pool, each NUMA-pinned to a socket. Operations are
// issued through per-goroutine Sessions, which route by key hash.
type DB struct {
	pool   *pmem.Pool
	shards []*core.Tree
}

func (c Config) coreOptions(shard, shards, sockets int) core.Options {
	return core.Options{
		Nbatch:       c.Nbatch,
		THlog:        c.THlog,
		GC:           c.GC,
		NaiveLogging: c.NaiveLogging,
		VarKV:        c.VarKV,
		ChunkBytes:   c.ChunkBytes,
		Metrics:      c.Metrics,
		Tracer:       c.Tracer,
		HomeSocket:   shard % sockets,
		ArenaIndex:   shard,
		ArenaCount:   shards,
	}
}

func (c Config) shardCount() (int, error) {
	switch {
	case c.Shards < 0:
		return 0, fmt.Errorf("cclbtree: %d shards impossible", c.Shards)
	case c.Shards == 0:
		return 1, nil
	}
	return c.Shards, nil
}

// New creates a fresh DB on a new PM pool built from cfg.Platform.
func New(cfg Config) (*DB, error) {
	pool := pmem.NewPool(cfg.Platform)
	return NewOnPool(pool, cfg)
}

// NewOnPool creates a fresh DB on an existing pool (e.g. one shared
// with a benchmark harness).
func NewOnPool(pool *pmem.Pool, cfg Config) (*DB, error) {
	n, err := cfg.shardCount()
	if err != nil {
		return nil, err
	}
	db := &DB{pool: pool, shards: make([]*core.Tree, n)}
	for i := range db.shards {
		tr, err := core.New(pool, cfg.coreOptions(i, n, pool.Sockets()))
		if err != nil {
			return nil, fmt.Errorf("cclbtree: shard %d: %w", i, err)
		}
		db.shards[i] = tr
	}
	return db, nil
}

// Open recovers a DB previously created on pool, after a crash
// (Pool.Crash) or a restart (Pool.LoadPersistent). Each shard walks
// its persistent leaf list and replays its write-ahead logs, per §3.3
// of the paper. cfg.Shards 0 auto-detects the persisted shard count; a
// non-zero count must match the one the DB was created with.
func Open(pool *pmem.Pool, cfg Config) (*DB, error) {
	t, _, err := OpenWithStats(pool, cfg, 1)
	return t, err
}

// RecoveryStats describes a recovery run.
type RecoveryStats = core.RecoveryStats

// OpenWithStats is Open with parallel recovery and statistics (Fig 17).
// Shards recover concurrently; the returned stats sum the per-shard
// counters, and VirtualNS is the slowest shard (they run in parallel
// on independent arenas). A power failure injected inside recovery
// (Pool.FailWhen) panics pmem.PowerFailure on the caller once every
// shard has stopped, so a crash harness can crash and open again.
func OpenWithStats(pool *pmem.Pool, cfg Config, threads int) (*DB, *RecoveryStats, error) {
	n := cfg.Shards
	if n < 0 {
		return nil, nil, fmt.Errorf("cclbtree: %d shards impossible", n)
	}
	if n == 0 {
		probed, err := core.ProbeArenaCount(pool)
		if err != nil {
			return nil, nil, fmt.Errorf("cclbtree: %w", err)
		}
		n = probed
	}
	db := &DB{pool: pool, shards: make([]*core.Tree, n)}
	stats := make([]*core.RecoveryStats, n)
	err := pmem.Parallel(n, func(i int) error {
		tr, st, err := core.Open(pool, cfg.coreOptions(i, n, pool.Sockets()), threads)
		if err != nil {
			return fmt.Errorf("cclbtree: shard %d: %w", i, err)
		}
		db.shards[i], stats[i] = tr, st
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	agg := &RecoveryStats{}
	for _, st := range stats {
		agg.Leaves += st.Leaves
		agg.ChunksScanned += st.ChunksScanned
		agg.EntriesSeen += st.EntriesSeen
		agg.EntriesReplayed += st.EntriesReplayed
		agg.EntriesStale += st.EntriesStale
		agg.EntriesDropped += st.EntriesDropped
		agg.EmptyLeavesReclaimed += st.EmptyLeavesReclaimed
		agg.VirtualNS = max(agg.VirtualNS, st.VirtualNS)
	}
	return db, agg, nil
}

// Pool returns the underlying PM pool (stats, crash injection,
// persistence to disk).
func (db *DB) Pool() *pmem.Pool { return db.pool }

// Shards reports the number of shard trees.
func (db *DB) Shards() int { return len(db.shards) }

// ShardFor reports which shard a fixed 8 B key routes to. The hash is
// a stable bit-mix (identical across processes and restarts), so the
// serving tier can route before touching the DB.
func (db *DB) ShardFor(key uint64) int { return db.shardOf(&core.BatchOp{Key: key}) }

// ShardForVar reports which shard a variable-size key routes to.
func (db *DB) ShardForVar(key []byte) int { return db.shardOf(&core.BatchOp{KeyBytes: key}) }

// ShardHomeSocket reports the NUMA socket shard i is pinned to. The
// serving tier uses it to place each shard's commit lane on the
// shard's socket.
func (db *DB) ShardHomeSocket(i int) int { return db.shards[i].Options().HomeSocket }

// StartGCAsync launches one log-reclamation round per shard in the
// background (Fig 14's explicit trigger) and returns immediately.
func (db *DB) StartGCAsync() {
	for _, tr := range db.shards {
		tr.StartGCAsync()
	}
}

// WaitGC blocks until every shard's in-flight GC round, if any,
// completes.
func (db *DB) WaitGC() {
	for _, tr := range db.shards {
		tr.WaitGC()
	}
}

// ForceGC runs a log-reclamation round on every shard synchronously.
func (db *DB) ForceGC() {
	for _, tr := range db.shards {
		tr.ForceGC()
	}
}

// PeakLogBytes reports the largest live WAL volume observed, summed
// across shards (Table 2's "peak log size").
func (db *DB) PeakLogBytes() int64 {
	var total int64
	for _, tr := range db.shards {
		total += tr.PeakLogBytes()
	}
	return total
}

// ShardCounters returns one shard's behavioral statistics.
func (db *DB) ShardCounters(i int) core.Counters { return db.shards[i].Counters() }

// Metrics returns the DB-wide observability snapshot: behavioral
// counters summed across shards plus, when Config.Metrics is on,
// latency histograms merged across shards (bucket-exact).
func (db *DB) Metrics() core.TreeMetrics {
	if len(db.shards) == 1 {
		return db.shards[0].Metrics()
	}
	var agg core.TreeMetrics
	for _, tr := range db.shards {
		m := tr.Metrics()
		agg.Counters = agg.Counters.Add(m.Counters)
		if m.Latency != nil {
			if agg.Latency == nil {
				agg.Latency = &obs.Snapshot{}
			}
			agg.Latency.Merge(m.Latency)
		}
	}
	return agg
}

// ShardMetrics returns one shard's counters and latency histograms —
// the per-shard attribution the serving tier and the shards benchmark
// report.
func (db *DB) ShardMetrics(i int) core.TreeMetrics { return db.shards[i].Metrics() }

// Observe snapshots the pool's device counters flattened for display or
// JSON export, including the per-scope media-byte attribution. Device
// counters are pool-wide; for per-shard attribution use ShardMetrics
// and ShardProfile.
func (db *DB) Observe() obs.Observation { return obs.Observe(db.pool) }

// ShardProfile snapshots one shard's contention/heat tier.
func (db *DB) ShardProfile(i int) obs.Profile { return db.shards[i].Profile() }

// MemoryUsage returns modeled DRAM bytes and PM bytes in use, summed
// across shards.
func (db *DB) MemoryUsage() (dramBytes, pmBytes int64) {
	for _, tr := range db.shards {
		d, p := tr.MemoryUsage()
		dramBytes += d
		pmBytes += p
	}
	return dramBytes, pmBytes
}

// Close stops every shard's background garbage collection. Call it
// before Pool.Crash (a real power failure halts every thread at once)
// or when abandoning the DB; the DB must not be used afterwards.
func (db *DB) Close() {
	for _, tr := range db.shards {
		tr.Freeze()
	}
}

// IsIndirect reports whether a value word is an indirection pointer to
// an out-of-band blob rather than an inline 8 B value.
func IsIndirect(word uint64) bool { return core.IsBlobWord(word) }
