package cclbtree

import (
	"bytes"
	"cmp"
	"iter"
	"math"

	"cclbtree/internal/core"
)

// rangeChunk is how many entries each iterator page pulls per Scan.
const rangeChunk = 128

// pager is what the paged merge needs to know about a key kind: K is
// the key (and value) type, E the scan entry carrying a pair of them.
type pager[K, E any] struct {
	// scan returns one shard's next page — at most rangeChunk entries
	// with key ≥ from, ascending — and may recycle buf, the previous one.
	scan func(w *core.Worker, from K, buf []E) []E
	pair func(E) (key, value K)
	cmp  func(a, b K) int
	// succ returns the smallest key above k, where the page after one
	// ending at k resumes; ok is false when k is the largest key.
	succ func(k K) (next K, ok bool)
}

var fixedPager = pager[uint64, KV]{
	scan: func(w *core.Worker, from uint64, buf []KV) []KV {
		if buf == nil {
			buf = make([]KV, rangeChunk)
		}
		return buf[:w.Scan(from, rangeChunk, buf[:rangeChunk])]
	},
	pair: func(e KV) (uint64, uint64) { return e.Key, e.Value },
	cmp:  cmp.Compare[uint64],
	succ: func(k uint64) (uint64, bool) { return k + 1, k != math.MaxUint64 },
}

var varPager = pager[[]byte, KVBytes]{
	scan: func(w *core.Worker, from []byte, _ []KVBytes) []KVBytes {
		return w.ScanVar(from, rangeChunk)
	},
	pair: func(e KVBytes) ([]byte, []byte) { return e.Key, e.Value },
	cmp:  bytes.Compare,
	// A key's successor in byte order is the key with a zero byte
	// appended.
	succ: func(k []byte) ([]byte, bool) {
		return append(append(make([]byte, 0, len(k)+1), k...), 0), true
	},
}

// cursor pages one shard's ascending stream. The merge below peeks
// cursors and pops the global minimum; the subtle part is the paging
// boundary: a cursor whose page came back full may have more keys —
// possibly SMALLER than another cursor's current key — so an exhausted
// full page must refill before the merge compares anything against this
// shard again. Concluding "done" (or yielding a rival's key) at a
// full-page edge is exactly the interleaving bug the cross-shard
// regression test pins.
type cursor[K, E any] struct {
	w    *core.Worker
	page []E
	pos  int // next entry of page to yield
	next K   // where the next page starts
	done bool
}

// peek returns the cursor's current entry, refilling across page
// boundaries; ok is false only when the shard is exhausted.
func (c *cursor[K, E]) peek(p *pager[K, E]) (key, value K, ok bool) {
	for c.pos == len(c.page) {
		if c.done {
			return key, value, false
		}
		c.page, c.pos = p.scan(c.w, c.next, c.page), 0
		// A short page means the shard has nothing past its last entry.
		c.done = len(c.page) < rangeChunk
		if !c.done {
			last, _ := p.pair(c.page[len(c.page)-1])
			var more bool
			c.next, more = p.succ(last)
			c.done = !more
		}
	}
	key, value = p.pair(c.page[c.pos])
	return key, value, true
}

// mergeRange is the paged k-way merge behind Range and RangeVar: one
// cursor per shard (a single cursor when unsharded), the smallest
// current key yielded each step. Every key lives on exactly one shard,
// so the merge never sees duplicates.
func mergeRange[K, E any](s *Session, start K, p *pager[K, E]) iter.Seq2[K, K] {
	return func(yield func(K, K) bool) {
		// All shards participate: sync every worker up to the serial
		// clock once, and settle the slowest at the end.
		cursors := make([]cursor[K, E], len(s.ws))
		for i := range cursors {
			cursors[i] = cursor[K, E]{w: s.worker(i), next: start}
		}
		defer func() {
			for i := range cursors {
				s.settle(cursors[i].w)
			}
		}()
		for {
			best := -1
			var bestKey, bestVal K
			for i := range cursors {
				k, v, ok := cursors[i].peek(p)
				if ok && (best < 0 || p.cmp(k, bestKey) < 0) {
					best, bestKey, bestVal = i, k, v
				}
			}
			if best < 0 {
				return
			}
			cursors[best].pos++
			if !yield(bestKey, bestVal) {
				return
			}
		}
	}
}

// Range returns an iterator over the live entries with key ≥ start in
// ascending order, for use with a range-over-func loop:
//
//	for k, v := range s.Range(1) { ... }
//
// The iterator pages through each shard with Scan and merges the
// streams in key order. It sees a per-page-consistent snapshot: entries
// written after iteration passes their key are not revisited. Breaking
// out of the loop early is cheap; nothing is held between pages.
func (s *Session) Range(start uint64) iter.Seq2[uint64, uint64] {
	return mergeRange(s, start, &fixedPager)
}

// RangeVar returns an iterator over the live variable-size entries
// with key ≥ start in ascending byte order, merged across shards
// (requires Config.VarKV). A nil start begins at the smallest key.
// Yielded slices are fresh copies owned by the caller.
func (s *Session) RangeVar(start []byte) iter.Seq2[[]byte, []byte] {
	return mergeRange(s, start, &varPager)
}
