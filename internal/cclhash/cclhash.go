// Package cclhash applies the CCL-BTree techniques to a persistent
// hash table, the paper's §6 generality claim. The table is a second
// directory (core.Directory) on core's engine, which buffers, logs,
// collects and recovers exactly as it does for the tree. This package
// keeps the hash-specific part: a fixed PM array of 256 B buckets
// (pmleaf lines) with overflow chains, one engine buffer node per home
// bucket, the chain flush and the chain probe. Buckets have fixed
// addresses, so recovery routing is exact and a delete simply clears
// its bitmap bit (no fence entries, unlike the tree).
package cclhash

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"cclbtree/internal/core"
	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
)

// Options configures the table.
type Options struct {
	// Buckets is the home-bucket count (rounded up to a power of two;
	// default 16384).
	Buckets int
	// Nbatch is the per-bucket DRAM buffer capacity (default 2).
	Nbatch int
	// THlog triggers GC when live log bytes exceed THlog × bucket
	// bytes (default 0.2).
	THlog float64
	// ChunkBytes is the WAL chunk size (default 1 MB).
	ChunkBytes int
	// DisableGC turns reclamation off.
	DisableGC bool
}

// core maps every field but Buckets onto the engine's options.
func (o Options) core() core.Options {
	co := core.Options{Nbatch: o.Nbatch, THlog: o.THlog, ChunkBytes: cmp.Or(o.ChunkBytes, 1<<20)}
	if o.DisableGC {
		co.GC = core.GCOff
	}
	return co
}

// Table is the persistent hash table: core's engine (counters, GC,
// Freeze) on the bucket directory.
type Table struct {
	*core.Tree
	d *buckets
}

// buckets is the table's directory: node i fronts home bucket i.
type buckets struct {
	n     int
	nodes []*core.Node
}

func newBuckets(n int) *buckets {
	if n <= 0 {
		n = 1 << 14
	}
	return &buckets{n: 1 << bits.Len(uint(n-1))}
}

// New creates a table on the pool.
func New(pool *pmem.Pool, opts Options) (*Table, error) {
	d := newBuckets(opts.Buckets)
	tr, err := core.NewIndex(pool, opts.core(), d)
	return &Table{tr, d}, err
}

// Recover reopens the table on pool after a power failure, through the
// engine's recovery.
func Recover(pool *pmem.Pool, opts Options) (*Table, error) {
	d := newBuckets(opts.Buckets)
	tr, _, err := core.OpenIndex(pool, opts.core(), 1, d)
	return &Table{tr, d}, err
}

func hashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func fp(k uint64) byte {
	x := hashKey(k)
	return byte(x>>56) ^ byte(x>>24)
}

func (d *buckets) bucket(k uint64) uint64 { return hashKey(k) & uint64(d.n-1) }

// Worker is a per-goroutine handle.
type Worker struct{ w *core.Worker }

// NewWorker creates a handle bound to a socket.
func (h *Table) NewWorker(socket int) *Worker { return &Worker{h.Tree.NewWorker(socket)} }

// Thread exposes the worker's PM thread.
func (w *Worker) Thread() *pmem.Thread { return w.w.Thread() }

// Put inserts or updates a pair through the engine's checked single-
// write entry. Key must be nonzero; value 0 is the tombstone (use
// Delete).
func (w *Worker) Put(key, value uint64) error {
	return w.w.Write(&core.BatchOp{Key: key, Value: value}, false)
}

// Delete removes key via a buffered tombstone.
func (w *Worker) Delete(key uint64) error {
	return w.w.Write(&core.BatchOp{Key: key, Delete: true}, false)
}

// Get returns the value for key.
func (w *Worker) Get(key uint64) (uint64, bool) { return w.w.Lookup(key) }

func (d *buckets) Find(_ *pmem.Thread, key uint64) *core.Node { return d.nodes[d.bucket(key)] }

// Owns is exact: buckets never split or merge.
func (d *buckets) Owns(t *pmem.Thread, n *core.Node, key uint64) bool { return d.Find(t, key) == n }

// Compare orders a group by bucket, then key.
func (d *buckets) Compare(_ *pmem.Thread, a, b uint64) int {
	return cmp.Or(cmp.Compare(d.bucket(a), d.bucket(b)), cmp.Compare(a, b))
}

func (d *buckets) RunEnd(t *pmem.Thread, n *core.Node, kvs []core.KV) int {
	end := 1
	for end < len(kvs) && d.Owns(t, n, kvs[end].Key) {
		end++
	}
	return end
}

// Build formats a zeroed bucket array, or walks an image's array and
// its overflow chains; either way one node fronts each home bucket. The
// walk reads each home bucket's header and follows its chain through
// the engine's checker (core.Rebuild), which reads the overflow buckets
// from recovery's table of carved lines.
func (d *buckets) Build(tr *core.Tree, t *pmem.Thread, base pmem.Addr, rb *core.Rebuild) (pmem.Addr, error) {
	if rb == nil {
		var err error
		if base, err = tr.Allocator().Alloc(tr.Options().HomeSocket, d.n*pmleaf.Bytes); err != nil {
			return base, fmt.Errorf("cclhash: bucket array: %w", err)
		}
		t.WriteRange(base, make([]uint64, d.n*pmleaf.Words))
		t.Persist(base, d.n*pmleaf.Bytes)
	}
	if rb != nil && !tr.Pool().ValidRange(base, int64(d.n*pmleaf.Bytes)) {
		return base, &core.CorruptError{Struct: "bucket array", Addr: base,
			Detail: fmt.Sprintf("%d buckets run off the device", d.n)}
	}
	homes := make([]pmem.Addr, d.n)
	lines := 0
	for b := range homes {
		homes[b] = base.Add(int64(b * pmleaf.Bytes))
		if rb == nil {
			continue
		}
		var hdr pmleaf.Image
		hdr.ReadHeader(t, homes[b])
		err := rb.Line(homes[b], hdr.TS())
		for next := hdr.Next(); err == nil && !next.IsNil(); lines++ {
			next, err = rb.Follow(next)
		}
		if err != nil {
			return base, err
		}
		lines++
	}
	d.nodes = tr.Link(homes, max(lines, d.n)) // a fresh array walks none
	return base, nil
}

// Search probes the bucket chain behind n.
func (d *buckets) Search(w *core.Worker, n *core.Node, key uint64, _ byte) (uint64, bool) {
	t, f := w.Thread(), fp(key)
	for addr := n.Line(); !addr.IsNil(); {
		var hdr pmleaf.Image
		hdr.ReadHeader(t, addr)
		for i := 0; i < pmleaf.Slots; i++ {
			if slot := pmleaf.SlotAddr(addr, i); hdr.Valid(i) && hdr.FPAt(i) == f && t.Load(slot) == key {
				return t.Load(slot.Add(8)), true
			}
		}
		addr = hdr.Next()
	}
	return 0, false
}

// plan is one bucket of a chain flush: its new image, the range of
// data words it dirties and the fingerprint words of the slots it
// fills.
type plan struct {
	img        pmleaf.Image
	next       pmem.Addr // successor before the flush
	dirty, fps pmleaf.Span
	fresh      bool // newly allocated overflow bucket
}

// Stage is the first half of a chain flush, in a wave of the engine:
// it plans slot assignments over n's whole chain and writes and flushes
// the data, fresh buckets whole and existing ones only their dirty slot
// words (and, in a shared wave, the home bucket's new fingerprints; see
// core.Staged). Publish then writes the headers from the TAIL of the
// chain back to the home bucket, so the home bucket's timestamp — which
// gates WAL replay for every entry this buffer held — persists only
// after all of the batch's data is durable; a crash before it replays
// the entries idempotently.
func (d *buckets) Stage(w *core.Worker, n *core.Node, s *core.Staged, batch []core.KV) error {
	t := w.Thread()
	var chain []*plan
	for addr, rest := n.Line(), batch; ; {
		p := &plan{fresh: addr.IsNil()}
		var err error
		if p.fresh { // only reached when live entries still need slots
			if p.img.Addr, err = w.NewLine(); err != nil {
				return fmt.Errorf("cclhash: overflow bucket: %w", err)
			}
		} else {
			p.img.Read(t, addr)
			p.next = p.img.Next()
		}
		bm := p.img.Bitmap()
		var assigned uint16
		var deferred []core.KV
		needSlot := false
		for _, e := range rest {
			slot, f := -1, fp(e.Key)
			for i := 0; i < pmleaf.Slots && slot < 0; i++ {
				if bm&(1<<uint(i)) != 0 && p.img.FPAt(i) == f && p.img.Key(i) == e.Key {
					slot = i
				}
			}
			free := ^uint32(bm) & ^uint32(assigned) & pmleaf.BitmapMask
			switch {
			case slot >= 0 && e.Value == core.Tombstone:
				bm &^= 1 << uint(slot) // fixed bucket addresses: safe to clear
			case slot >= 0:
				p.img.SetKV(slot, e.Key, e.Value)
				p.dirty.Mark(pmleaf.SlotWord(slot) + 1)
			case e.Value == core.Tombstone || free == 0:
				// May live further down, or needs a slot there.
				deferred = append(deferred, e)
				needSlot = needSlot || e.Value != core.Tombstone
			default:
				i := bits.TrailingZeros32(free)
				p.img.SetKV(i, e.Key, e.Value)
				p.img.SetFP(i, f)
				assigned |= 1 << uint(i)
				bm |= 1 << uint(i)
				p.dirty.Mark(pmleaf.SlotWord(i))
				p.dirty.Mark(pmleaf.SlotWord(i) + 1)
				p.fps.Mark(pmleaf.FPWord(i))
				if !p.next.IsNil() {
					// A delete freed this slot after the key
					// overflowed: its older copy further down goes,
					// or a later delete would clear only this one.
					deferred = append(deferred, core.KV{Key: e.Key, Value: core.Tombstone})
				}
			}
		}
		// Each bucket keeps its successor: the existing link (and any
		// untraversed tail), or the next planned bucket.
		p.img.SetMeta(pmleaf.PackMeta(bm, p.next))
		if len(chain) > 0 {
			prev := &chain[len(chain)-1].img
			prev.SetMeta(pmleaf.PackMeta(prev.Bitmap(), p.img.Addr))
		}
		chain = append(chain, p)
		// Deferred tombstones follow the existing chain; only puts
		// extend it.
		if !needSlot && (len(deferred) == 0 || p.next.IsNil()) {
			break
		}
		addr, rest = p.next, deferred
	}

	// Phase 1: data, durable at the wave's fence before any header is
	// published. Fresh buckets go whole, existing ones only their dirty
	// slot words.
	for i, p := range chain {
		if p.fresh {
			t.WriteRange(p.img.Addr, p.img.Words[:])
			t.Flush(p.img.Addr, pmleaf.Bytes) //persistlint:ignore PL002 the wave fences the staged data
			s.Flushed = true
			continue
		}
		if i == 0 && s.Shared && p.fps.Hi > 0 {
			p.dirty.Mark(p.fps.Lo)
			p.dirty.Mark(p.fps.Hi - 1)
		}
		s.Flushed = pmleaf.FlushSpan(t, &p.img, p.dirty) || s.Flushed
	}
	s.Aux = chain
	return nil
}

// Publish is phase 2 of a chain flush, once the wave's fence made the
// data durable: the headers tail -> home, each tail bucket's fenced
// before the next, so the home bucket's timestamp lands last.
func (d *buckets) Publish(w *core.Worker, n *core.Node, s *core.Staged) {
	t := w.Thread()
	chain := s.Aux.([]*plan)
	for _, p := range slices.Backward(chain[1:]) {
		if !p.fresh {
			p.img.SetTS(w.Stamp(n))
			pmleaf.WriteHeader(t, &p.img)
		}
	}
	home := &chain[0].img
	home.SetTS(w.Stamp(n))
	pmleaf.FlushHeader(t, home)
	s.Live = pmleaf.Slots // buckets never merge: report a full line
}
