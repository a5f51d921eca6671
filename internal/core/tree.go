package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cclbtree/internal/obs"
	"cclbtree/internal/ordo"
	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
	"cclbtree/internal/wal"
)

// superblock layout, at a fixed PM location — arena base + 256 on the
// tree's home socket — so recovery can bootstrap without any volatile
// state:
//
//	word 0  magic
//	word 1  head leaf address
//	word 2  chunk directory address
//	word 3  chunk directory slot count
//	word 4  WAL chunk bytes
//	word 5  flags (bit 0: VarKV; bit 1: another directory's image;
//	        bits 8-23: arena count, 0 meaning 1; bits 24-39: arena index)
//	word 6  carve directory capacity in records, its region right
//	        after the chunk directory's slots (see chunkDir)
//
// The arena placement is part of the superblock because arena 0 of any
// count starts at offset 0: without it, opening an 8-shard pool as a
// single tree would find shard 0's magic and silently recover one
// eighth of the data. The directory bit keeps a tree from opening a
// hash table's image and the reverse; tree images never set it.
const (
	sbOffset = 256
	sbMagic  = 0xcc1b7ee0_2024_0002
	sbWords  = 7
	sbIndex  = 1 << 1
	// sbMagicNoCarves marks an image from before the carve directory:
	// its word 6 is zero, and the word after its chunk slots may be the
	// head leaf's meta word. Open refuses it rather than clear that word
	// as a carve terminator.
	sbMagicNoCarves = 0xcc1b7ee0_2024_0001
)

// sbFlags packs the VarKV bit, the directory bit and the arena
// placement into the superblock flags word.
func sbFlags(o Options, tree bool) uint64 {
	var flags uint64
	if o.VarKV {
		flags |= 1
	}
	if !tree {
		flags |= sbIndex
	}
	flags |= uint64(o.ArenaCount) << 8
	flags |= uint64(o.ArenaIndex) << 24
	return flags
}

// sbArena unpacks the placement (count 0 from pre-arena images reads
// as 1).
func sbArena(flags uint64) (index, count int) {
	index = int(flags >> 24 & maxArenaFlag)
	count = int(flags >> 8 & maxArenaFlag)
	if count == 0 {
		count = 1
	}
	return index, count
}

// Tree is a CCL-BTree over a PM pool. Operations go through per-
// goroutine Workers (NewWorker), mirroring the paper's per-thread WAL
// design.
type Tree struct {
	pool   *pmem.Pool
	alloc  *pmalloc.Allocator
	walman *wal.Manager
	clock  *ordo.Clock
	opts   Options

	// index is the directory (see Directory): treeDir over inner, or
	// another index's. head starts the buffer-node chain.
	index Directory
	inner *innerTree
	head  *bufferNode

	// epoch is the global GC epoch (0/1), read under buffer-node locks
	// (§3.4).
	epoch atomic.Uint32

	workersMu classedLock
	workers   []*Worker

	// reclaim is the epoch-based reclamation state keeping merged
	// leaves mapped while lock-free readers may still probe them.
	reclaim epochManager

	closed    atomic.Bool
	gcRunning atomic.Bool
	gcMu      classedLock
	gcDone    chan struct{} // closed when the current GC round finishes
	gcW       *Worker
	gcOnce    sync.Once
	// stw is the naive-GC stop-the-world lock; ops take the read side
	// only when the policy is GCNaive. stallVT propagates the GC
	// thread's virtual clock to foreground threads it blocked, so the
	// stop-the-world pause shows up in simulated time (Fig 14).
	stw      classedLock
	stallVT  atomic.Int64
	stallGen atomic.Uint64

	// met/tracer are the optional observability hooks (Options.Metrics,
	// Options.Tracer); both nil-safe at every use site. prof/heat are
	// the contention profiler and leaf heatmap of the second obs tier,
	// enabled together with met and likewise nil-safe everywhere.
	met    *treeMetrics
	tracer *obs.Tracer
	prof   *obs.LockProfiler
	heat   *obs.Heatmap

	leafCount atomic.Int64
	// logBytes tracks live appended WAL bytes (entries in unreclaimed
	// generations); this — not chunk footprint — feeds the THlog
	// trigger ratio, matching the paper's "log file size".
	logBytes atomic.Int64
	peakLog  atomic.Int64
	ctr      counters

	dir *chunkDir
}

// counters aggregates the tree's behavioral statistics.
type counters struct {
	upserts        atomic.Uint64
	deletes        atomic.Uint64
	lookups        atomic.Uint64
	scans          atomic.Uint64
	bufferHits     atomic.Uint64
	triggerWrites  atomic.Uint64
	loggedWrites   atomic.Uint64
	skippedLogs    atomic.Uint64
	splits         atomic.Uint64
	merges         atomic.Uint64
	gcRuns         atomic.Uint64
	gcCopied       atomic.Uint64
	gcSkippedFresh atomic.Uint64
	retries        atomic.Uint64
	readRetries    atomic.Uint64
	epochRetires   atomic.Uint64
	epochReclaims  atomic.Uint64
	batchApplies   atomic.Uint64
	batchedOps     atomic.Uint64
}

// Counters is a snapshot of the tree's behavioral statistics.
type Counters struct {
	Upserts, Deletes, Lookups, Scans   uint64
	BufferHits                         uint64 // lookups answered from buffer nodes
	TriggerWrites                      uint64 // inserts that flushed a batch (unlogged under write-conservative logging)
	LoggedWrites                       uint64 // WAL appends
	SkippedLogs                        uint64 // log operations avoided by write-conservative logging
	Splits, Merges                     uint64
	GCRuns, GCCopiedEntries, GCSkipped uint64
	Retries                            uint64 // optimistic/concurrency retries (reads + writes)
	ReadRetries                        uint64 // lock-free Get/Scan passes retried on a version change
	EpochRetires                       uint64 // merged leaves parked in reclamation limbo
	EpochReclaims                      uint64 // limbo leaves freed once no reader could route to them
	BatchApplies                       uint64 // ApplyBatch group commits
	BatchedOps                         uint64 // writes that went through ApplyBatch
}

// Counters returns a snapshot of behavioral statistics.
func (tr *Tree) Counters() Counters {
	return Counters{
		Upserts:         tr.ctr.upserts.Load(),
		Deletes:         tr.ctr.deletes.Load(),
		Lookups:         tr.ctr.lookups.Load(),
		Scans:           tr.ctr.scans.Load(),
		BufferHits:      tr.ctr.bufferHits.Load(),
		TriggerWrites:   tr.ctr.triggerWrites.Load(),
		LoggedWrites:    tr.ctr.loggedWrites.Load(),
		SkippedLogs:     tr.ctr.skippedLogs.Load(),
		Splits:          tr.ctr.splits.Load(),
		Merges:          tr.ctr.merges.Load(),
		GCRuns:          tr.ctr.gcRuns.Load(),
		GCCopiedEntries: tr.ctr.gcCopied.Load(),
		GCSkipped:       tr.ctr.gcSkippedFresh.Load(),
		Retries:         tr.ctr.retries.Load(),
		ReadRetries:     tr.ctr.readRetries.Load(),
		EpochRetires:    tr.ctr.epochRetires.Load(),
		EpochReclaims:   tr.ctr.epochReclaims.Load(),
		BatchApplies:    tr.ctr.batchApplies.Load(),
		BatchedOps:      tr.ctr.batchedOps.Load(),
	}
}

// Add returns the field-wise sum of two snapshots. The sharded DB
// frontend aggregates per-shard counters with it; Retries-style gauges
// sum like everything else (they are monotone event counts).
func (c Counters) Add(o Counters) Counters {
	c.Upserts += o.Upserts
	c.Deletes += o.Deletes
	c.Lookups += o.Lookups
	c.Scans += o.Scans
	c.BufferHits += o.BufferHits
	c.TriggerWrites += o.TriggerWrites
	c.LoggedWrites += o.LoggedWrites
	c.SkippedLogs += o.SkippedLogs
	c.Splits += o.Splits
	c.Merges += o.Merges
	c.GCRuns += o.GCRuns
	c.GCCopiedEntries += o.GCCopiedEntries
	c.GCSkipped += o.GCSkipped
	c.Retries += o.Retries
	c.ReadRetries += o.ReadRetries
	c.EpochRetires += o.EpochRetires
	c.EpochReclaims += o.EpochReclaims
	c.BatchApplies += o.BatchApplies
	c.BatchedOps += o.BatchedOps
	return c
}

// New creates an empty CCL-BTree on the pool, homed on
// Options.HomeSocket and placed in its PM arena (whole device by
// default).
func New(pool *pmem.Pool, opts Options) (*Tree, error) { return NewIndex(pool, opts, nil) }

// NewIndex is New for an index whose directory is dir (nil: the tree's).
func NewIndex(pool *pmem.Pool, opts Options, dir Directory) (*Tree, error) {
	opts, alloc, err := setup(pool, opts)
	if err != nil {
		return nil, err
	}
	home := opts.HomeSocket
	tr := newTree(pool, alloc, opts, dir)

	t := pool.NewThread(home) // dies scoped at return
	t.PushScope(pmem.ScopeMeta)

	// Persistent chunk directory, with the carve directory after its
	// slots, sized by the arena. Its dedicated thread keeps ScopeMeta
	// for life: register/unregister/recordCarve fire from whatever
	// operation acquires or releases a chunk or carves lines, and
	// directory writes are metadata regardless of the trigger.
	carveSlots := tr.alloc.CarveSlots()
	dirAddr, err := tr.alloc.Alloc(home, (opts.DirSlots+carveSlots+1)*pmem.WordSize)
	if err != nil {
		return nil, fmt.Errorf("core: allocate chunk directory: %w", err)
	}
	tr.dir = newChunkDir(dirThread(pool, home), dirAddr, opts.DirSlots, carveSlots, 0)
	tr.initLock(&tr.dir.mu, obs.LockChunkDir)
	tr.dir.clearAll()
	tr.alloc.SetCarveRecorder(tr.dir.recordCarve)
	tr.walman.OnAcquire = tr.dir.register
	tr.walman.OnRelease = tr.dir.unregister

	root, err := tr.index.Build(tr, t, pmem.NilAddr, nil)
	if err != nil {
		return nil, err
	}

	// Superblock.
	sb := tr.sbAddr()
	for i, w := range []uint64{sbMagic, uint64(root), uint64(dirAddr), uint64(opts.DirSlots), uint64(opts.ChunkBytes),
		sbFlags(opts, dir == nil), uint64(carveSlots)} {
		t.Store(sb.Add(int64(8*i)), w)
	}
	t.Persist(sb, sbWords*pmem.WordSize)
	return tr, nil
}

// dirThread is the chunk directory's thread on home. It keeps
// ScopeMeta for life.
func dirThread(pool *pmem.Pool, home int) *pmem.Thread {
	t := pool.NewThread(home)
	t.PushScope(pmem.ScopeMeta)
	return t
}

// setup defaults opts and opens the tree's PM arena. Defaulting
// resolves the arena placement before the superblock is located: the
// superblock lives at the arena's base on the home socket, so a wrong
// placement finds no magic rather than another tree's state.
func setup(pool *pmem.Pool, opts Options) (Options, *pmalloc.Allocator, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return opts, nil, err
	}
	if opts.HomeSocket >= pool.Sockets() {
		return opts, nil, fmt.Errorf("core: home socket %d out of range (pool has %d)", opts.HomeSocket, pool.Sockets())
	}
	alloc, err := pmalloc.NewArena(pool, opts.ArenaIndex, opts.ArenaCount)
	if err != nil {
		return opts, nil, fmt.Errorf("core: %w", err)
	}
	return opts, alloc, nil
}

// newTree is the volatile half of New and Open: the engine with no
// nodes yet, on directory dir (nil: the tree's).
func newTree(pool *pmem.Pool, alloc *pmalloc.Allocator, opts Options, dir Directory) *Tree {
	tr := &Tree{
		pool:   pool,
		alloc:  alloc,
		clock:  ordo.New(pool.Sockets(), defaultOrdo),
		opts:   opts,
		index:  dir,
		gcDone: make(chan struct{}),
	}
	if dir == nil {
		tr.index = treeDir{tr}
	}
	close(tr.gcDone)
	tr.reclaim.init()
	tr.inner = newInnerTree(tr.compare)
	tr.walman = wal.NewManager(tr.alloc, opts.ChunkBytes)
	tr.initObs()
	tr.initLock(&tr.stw, obs.LockSTW)
	tr.initLock(&tr.workersMu, obs.LockWorkers)
	tr.initLock(&tr.gcMu, obs.LockGC)
	tr.initLock(&tr.inner.mu, obs.LockInner)
	return tr
}

// initLock classes one of the tree's locks (see lockRank) before its
// first use.
func (tr *Tree) initLock(l *classedLock, c obs.LockClass) {
	*l = classedLock{class: c, prof: tr.prof, strict: tr.pool.Config().StrictPersist}
}

// sbAddr is the tree's superblock location: arena base + sbOffset on
// the home socket.
func (tr *Tree) sbAddr() pmem.Addr {
	return pmem.MakeAddr(tr.opts.HomeSocket, tr.alloc.BaseOffset()+sbOffset)
}

// Pool returns the PM pool the tree lives on.
func (tr *Tree) Pool() *pmem.Pool { return tr.pool }

// crashAbort re-raises the pool's sticky power failure inside retry
// loops. A goroutine that dies mid-operation (pmem.FailWhen fired at
// one of its flushes) can leave a buffer node's version lock held
// forever; peers spinning on tryLock never flush, so they would never
// observe the failure and would spin until the test times out. On the
// modeled machine the power loss stops those CPUs too — this is that
// stop. One atomic load, and only on the contended retry path.
func (tr *Tree) crashAbort() {
	if tr.pool.FaultFired() {
		panic(pmem.PowerFailure{})
	}
}

// Allocator exposes the PM allocator for consumption accounting.
func (tr *Tree) Allocator() *pmalloc.Allocator { return tr.alloc }

// Options returns the (defaulted) options the tree runs with.
func (tr *Tree) Options() Options { return tr.opts }

// LeafCount returns the number of PM leaf nodes.
func (tr *Tree) LeafCount() int64 { return tr.leafCount.Load() }

// newLeaf allocates a zeroed 256 B leaf on socket.
func (tr *Tree) newLeaf(t *pmem.Thread, socket int) (pmem.Addr, error) {
	a, err := tr.alloc.Alloc(socket, LeafBytes)
	if err != nil {
		return pmem.NilAddr, fmt.Errorf("core: allocate leaf: %w", err)
	}
	tr.leafCount.Add(1)
	return a, nil
}

// compare orders two key words. In fixed mode it is plain integer
// order; in VarKV mode both words are indirection pointers and the
// comparison chases them to the actual key bytes (§4.4), with 0 as the
// -infinity sentinel used by the head node. The thread is charged for
// any PM reads the chase performs.
func (tr *Tree) compare(t *pmem.Thread, a, b uint64) int {
	if !tr.opts.VarKV {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	return tr.compareVar(t, a, b)
}

// keyFingerprint returns the 1 B fingerprint of a key word. VarKV mode
// hashes the key bytes so equal logical keys collide regardless of
// which blob holds them.
func (tr *Tree) keyFingerprint(t *pmem.Thread, keyWord uint64) byte {
	if !tr.opts.VarKV {
		return fpHash(mix64(keyWord))
	}
	return fpHash(hashKeyBytes(tr.keyBytes(t, keyWord)))
}

// memoryModelBufferNodeBytes is the paper-layout size of one buffer
// node: the compressed 8 B header, the 8 B leaf pointer, and Nbatch
// 16 B slots.
func (tr *Tree) memoryModelBufferNodeBytes() int64 {
	return int64(8 + 8 + 16*tr.opts.Nbatch)
}

// MemoryUsage reports modeled DRAM bytes (buffer nodes at their §3.2
// layout size plus inner-node routing entries) and PM bytes in use.
func (tr *Tree) MemoryUsage() (dramBytes, pmBytes int64) {
	nodes := tr.leafCount.Load() // one buffer node per leaf
	dram := nodes * tr.memoryModelBufferNodeBytes()
	// Inner routing entry: key + pointer, plus B+-tree node overhead
	// amortized (~1.2×).
	dram += int64(tr.inner.entries()) * 20
	return dram, tr.alloc.TotalInUseBytes()
}
