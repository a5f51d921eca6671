// Package lsm is a compact LSM-tree on the PM model, standing in for
// the PMEM-RocksDB comparison of Table 3. It has the pieces that give
// RocksDB its PM behaviour: a DRAM memtable with a write-ahead log,
// sorted immutable runs flushed sequentially to PM, leveled compaction
// that rewrites whole runs (the write amplification that destroys its
// insert throughput), multi-level reads (slow lookups), and
// sort-merging iterators across levels (slow scans).
package lsm

import (
	"fmt"
	"sort"
	"sync"

	"cclbtree/internal/index"
	"cclbtree/internal/memtree"
	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
	"cclbtree/internal/wal"
)

const (
	// memtableLimit is the entry count that triggers a flush to L0.
	memtableLimit = 4096
	// levelFanout is the size ratio between adjacent levels.
	levelFanout = 8
	// maxL0Runs triggers L0→L1 compaction.
	maxL0Runs = 4
	// sparseStep is the DRAM index granularity within a run.
	sparseStep = 16
	// tombstone marks deletions until the bottom level drops them.
	tombstone = uint64(0)
)

// run is one sorted immutable PM array of (key,value) pairs.
type run struct {
	addr   pmem.Addr
	count  int
	sparse []uint64 // every sparseStep-th key, in DRAM
	minKey uint64
	maxKey uint64
}

// Tree is the LSM instance.
type Tree struct {
	pool   *pmem.Pool
	alloc  *pmalloc.Allocator
	walman *wal.Manager

	mu       sync.RWMutex
	memtable memtree.Tree[uint64]
	levels   [][]*run // levels[0] = newest-first L0 runs
	stallVT  int64
	stallGen uint64
}

// New creates an empty LSM tree.
func New(pool *pmem.Pool) (*Tree, error) {
	tr := &Tree{pool: pool, alloc: pmalloc.New(pool)}
	tr.walman = wal.NewManager(tr.alloc, 512<<10)
	tr.levels = make([][]*run, 4)
	return tr, nil
}

// Factory adapts New to index.Factory.
func Factory() index.Factory {
	return func(pool *pmem.Pool) (index.Index, error) { return New(pool) }
}

// Name implements index.Index.
func (tr *Tree) Name() string { return "RocksDB-PM" }

// Close implements index.Index.
func (tr *Tree) Close() {}

// MemoryUsage implements index.Index.
func (tr *Tree) MemoryUsage() (int64, int64) {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	dram := int64(tr.memtable.Len()) * 48
	for _, lvl := range tr.levels {
		for _, r := range lvl {
			dram += int64(len(r.sparse)) * 8
		}
	}
	return dram, tr.alloc.TotalInUseBytes()
}

// NewHandle implements index.Index.
func (tr *Tree) NewHandle(socket int) index.Handle {
	return &handle{
		tr:  tr,
		t:   tr.pool.NewThread(socket),
		log: wal.NewLog(tr.walman, socket),
		seq: 1,
	}
}

type handle struct {
	tr      *Tree
	t       *pmem.Thread
	log     *wal.Log
	seq     uint64
	seenGen uint64
}

// syncStall lifts the handle's clock over the latest flush/compaction
// stall, once per event (caller holds tr.mu at least for reading).
func (h *handle) syncStall() {
	if h.tr.stallGen != h.seenGen {
		h.seenGen = h.tr.stallGen
		h.t.SyncClock(h.tr.stallVT)
	}
}

func (h *handle) Thread() *pmem.Thread { return h.t }

// Upsert implements index.Handle.
func (h *handle) Upsert(key, value uint64) error {
	if key == 0 {
		return fmt.Errorf("lsm: key 0 is reserved")
	}
	return h.write(key, value)
}

// Delete implements index.Handle.
func (h *handle) Delete(key uint64) error { return h.write(key, tombstone) }

func (h *handle) write(key, value uint64) error {
	h.seq++
	if _, err := h.log.Append(h.t, wal.Entry{Key: key, Value: value, Timestamp: h.seq}); err != nil {
		return err
	}
	h.tr.mu.Lock()
	defer h.tr.mu.Unlock()
	h.syncStall()
	h.tr.memtable.Put(key, value)
	if h.tr.memtable.Len() >= memtableLimit {
		if err := h.flushMemtable(); err != nil {
			return err
		}
		if v := h.t.Now(); v > h.tr.stallVT {
			h.tr.stallVT = v
			h.tr.stallGen++
		}
	}
	return nil
}

// flushMemtable writes the memtable as a new L0 run and compacts as
// needed. Caller holds tr.mu.
func (h *handle) flushMemtable() error {
	kvs := make([]index.KV, 0, h.tr.memtable.Len())
	h.tr.memtable.Ascend(0, func(k uint64, v uint64) bool {
		kvs = append(kvs, index.KV{Key: k, Value: v})
		return true
	})
	r, err := h.writeRun(kvs)
	if err != nil {
		return err
	}
	h.tr.levels[0] = append([]*run{r}, h.tr.levels[0]...)
	h.tr.memtable = memtree.Tree[uint64]{}
	h.log.Detach() // entries are durable in the run now
	return h.maybeCompact()
}

// writeRun persists a sorted KV array sequentially (log-like locality).
func (h *handle) writeRun(kvs []index.KV) (*run, error) {
	if len(kvs) == 0 {
		return nil, nil
	}
	addr, err := h.tr.alloc.Alloc(h.t.Socket(), len(kvs)*16)
	if err != nil {
		return nil, fmt.Errorf("lsm: run alloc: %w", err)
	}
	words := make([]uint64, 2*len(kvs))
	sparse := make([]uint64, 0, len(kvs)/sparseStep+1)
	for i, kv := range kvs {
		words[2*i] = kv.Key
		words[2*i+1] = kv.Value
		if i%sparseStep == 0 {
			sparse = append(sparse, kv.Key)
		}
	}
	h.t.WriteRange(addr, words)
	h.t.Persist(addr, len(words)*8)
	return &run{
		addr:   addr,
		count:  len(kvs),
		sparse: sparse,
		minKey: kvs[0].Key,
		maxKey: kvs[len(kvs)-1].Key,
	}, nil
}

// runBytes sums a level's PM footprint.
func runBytes(lvl []*run) int {
	n := 0
	for _, r := range lvl {
		n += r.count * 16
	}
	return n
}

// maybeCompact merges levels that exceeded their budgets. Caller holds
// tr.mu; the rewriting is charged to the inserting thread, modeling a
// foreground compaction stall.
func (h *handle) maybeCompact() error {
	if len(h.tr.levels[0]) > maxL0Runs {
		if err := h.compact(0); err != nil {
			return err
		}
	}
	budget := memtableLimit * 16 * levelFanout
	for l := 1; l < len(h.tr.levels)-1; l++ {
		if runBytes(h.tr.levels[l]) > budget {
			if err := h.compact(l); err != nil {
				return err
			}
		}
		budget *= levelFanout
	}
	return nil
}

// compact merges every run of level l with level l+1 into one new run:
// read everything, k-way merge newest-wins, rewrite sequentially —
// RocksDB's write amplification in miniature.
func (h *handle) compact(l int) error {
	sources := make([][]index.KV, 0, len(h.tr.levels[l])+len(h.tr.levels[l+1]))
	free := make([]*run, 0)
	for _, r := range h.tr.levels[l] {
		sources = append(sources, h.readRun(r))
		free = append(free, r)
	}
	for _, r := range h.tr.levels[l+1] {
		sources = append(sources, h.readRun(r))
		free = append(free, r)
	}
	merged := mergeNewestWins(sources)
	if l+1 == len(h.tr.levels)-1 {
		// Bottom level: drop tombstones for real.
		live := merged[:0]
		for _, kv := range merged {
			if kv.Value != tombstone {
				live = append(live, kv)
			}
		}
		merged = live
	}
	r, err := h.writeRun(merged)
	if err != nil {
		return err
	}
	h.tr.levels[l] = nil
	if r != nil {
		h.tr.levels[l+1] = []*run{r}
	} else {
		h.tr.levels[l+1] = nil
	}
	for _, old := range free {
		h.tr.alloc.Free(old.addr, old.count*16)
	}
	return nil
}

// readRun loads a whole run (sequential PM reads).
func (h *handle) readRun(r *run) []index.KV {
	words := make([]uint64, 2*r.count)
	h.t.ReadRange(r.addr, words)
	kvs := make([]index.KV, r.count)
	for i := range kvs {
		kvs[i] = index.KV{Key: words[2*i], Value: words[2*i+1]}
	}
	return kvs
}

// mergeNewestWins k-way merges sorted sources; earlier sources are
// newer and win ties.
func mergeNewestWins(sources [][]index.KV) []index.KV {
	idx := make([]int, len(sources))
	var out []index.KV
	for {
		best := -1
		var bestKey uint64
		for s := range sources {
			if idx[s] >= len(sources[s]) {
				continue
			}
			k := sources[s][idx[s]].Key
			if best < 0 || k < bestKey {
				best = s
				bestKey = k
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, sources[best][idx[best]])
		for s := range sources {
			if idx[s] < len(sources[s]) && sources[s][idx[s]].Key == bestKey {
				idx[s]++
			}
		}
	}
}

// searchRun finds key in a run via the sparse DRAM index plus a short
// PM read.
func (h *handle) searchRun(r *run, key uint64) (uint64, bool) {
	if key < r.minKey || key > r.maxKey {
		return 0, false
	}
	h.t.Advance(int64(8) * h.t.CostDRAM()) // sparse binary search
	blk := sort.Search(len(r.sparse), func(i int) bool { return r.sparse[i] > key }) - 1
	if blk < 0 {
		return 0, false
	}
	lo := blk * sparseStep
	hi := lo + sparseStep
	if hi > r.count {
		hi = r.count
	}
	words := make([]uint64, 2*(hi-lo))
	h.t.ReadRange(r.addr.Add(int64(16*lo)), words)
	for i := 0; i < hi-lo; i++ {
		if words[2*i] == key {
			return words[2*i+1], true
		}
	}
	return 0, false
}

// Lookup implements index.Handle: memtable, then every level newest to
// oldest.
func (h *handle) Lookup(key uint64) (uint64, bool) {
	h.tr.mu.RLock()
	defer h.tr.mu.RUnlock()
	h.syncStall()
	h.t.Advance(int64(h.tr.memtable.Depth()) * 6 * h.t.CostDRAM())
	if v, ok := h.tr.memtable.Get(key); ok {
		if v == tombstone {
			return 0, false
		}
		return v, true
	}
	for _, lvl := range h.tr.levels {
		for _, r := range lvl {
			if v, ok := h.searchRun(r, key); ok {
				if v == tombstone {
					return 0, false
				}
				return v, true
			}
		}
	}
	return 0, false
}

// Scan implements index.Handle: sort-merge the memtable and every run
// from the seek position — the multi-level seek that makes RocksDB
// scans an order of magnitude slower (Table 3).
func (h *handle) Scan(start uint64, max int, out []index.KV) int {
	h.tr.mu.RLock()
	defer h.tr.mu.RUnlock()
	h.syncStall()
	if max > len(out) {
		max = len(out)
	}
	lim := max + max/2 + 64 // headroom for shadowed versions/tombstones
	var sources [][]index.KV
	var mem []index.KV
	h.tr.memtable.Ascend(start, func(k uint64, v uint64) bool {
		mem = append(mem, index.KV{Key: k, Value: v})
		return len(mem) < lim
	})
	sources = append(sources, mem)
	for _, lvl := range h.tr.levels {
		for _, r := range lvl {
			sources = append(sources, h.seekRun(r, start, lim))
		}
	}
	merged := mergeNewestWins(sources)
	count := 0
	for _, kv := range merged {
		if count >= max {
			break
		}
		if kv.Value == tombstone {
			continue
		}
		out[count] = kv
		count++
	}
	return count
}

// seekRun reads up to lim entries with key ≥ start from a run.
func (h *handle) seekRun(r *run, start uint64, lim int) []index.KV {
	if start > r.maxKey {
		return nil
	}
	blk := sort.Search(len(r.sparse), func(i int) bool { return r.sparse[i] > start }) - 1
	lo := 0
	if blk > 0 {
		lo = blk * sparseStep
	}
	hi := lo + lim + sparseStep
	if hi > r.count {
		hi = r.count
	}
	words := make([]uint64, 2*(hi-lo))
	h.t.ReadRange(r.addr.Add(int64(16*lo)), words)
	var kvs []index.KV
	for i := 0; i < hi-lo; i++ {
		if words[2*i] >= start {
			kvs = append(kvs, index.KV{Key: words[2*i], Value: words[2*i+1]})
		}
	}
	return kvs
}
