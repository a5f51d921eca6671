package prim

import (
	"cclbtree/internal/index"
	"cclbtree/internal/pmem"
)

// Sorted-shift node layout, one 256 B XPLine:
//
//	word 0      count (low 16 bits) | caller flags (high bits)
//	word 1      link: right sibling of a leaf, leftmost child of an
//	            inner node
//	words 2–31  15 (key, value) pairs sorted by key
const (
	NodeBytes = 256
	NodeWords = NodeBytes / pmem.WordSize
	MaxPairs  = 15 // (256 − 16 B header) / 16 B

	countMask = 0xffff
	metaWord  = 0
	linkWord  = 1
	pairBase  = 2
)

// Node is a DRAM image of one sorted-shift node. The methods taking a
// thread write PM and keep the image in step; the rest touch the image
// only.
type Node struct {
	Addr  pmem.Addr
	Words [NodeWords]uint64
}

// Read loads the node at a.
func (n *Node) Read(t *pmem.Thread, a pmem.Addr) {
	n.Addr = a
	t.ReadRange(a, n.Words[:])
}

// Write stores and persists the whole image at n.Addr.
func (n *Node) Write(t *pmem.Thread) {
	t.WriteRange(n.Addr, n.Words[:])
	t.Persist(n.Addr, NodeBytes)
}

func (n *Node) Count() int       { return int(n.Words[metaWord] & countMask) }
func (n *Node) Flags() uint64    { return n.Words[metaWord] &^ countMask }
func (n *Node) Link() pmem.Addr  { return pmem.Addr(n.Words[linkWord]) }
func (n *Node) Key(i int) uint64 { return n.Words[pairBase+2*i] }
func (n *Node) Val(i int) uint64 { return n.Words[pairBase+2*i+1] }

// SetMeta sets the image's count and flags.
func (n *Node) SetMeta(flags uint64, count int) { n.Words[metaWord] = flags | uint64(count) }

// SetLink sets the image's link word.
func (n *Node) SetLink(a pmem.Addr) { n.Words[linkWord] = uint64(a) }

// SetPair sets pair i of the image.
func (n *Node) SetPair(i int, k, v uint64) {
	n.Words[pairBase+2*i] = k
	n.Words[pairBase+2*i+1] = v
}

func (n *Node) pairAddr(i int) pmem.Addr { return n.Addr.Add(int64(8 * (pairBase + 2*i))) }

// LowerBound returns the first index with key ≥ k.
func (n *Node) LowerBound(k uint64) int {
	lo, hi := 0, n.Count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.Key(mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Find returns k's lower bound and whether k is present there.
func (n *Node) Find(k uint64) (int, bool) {
	i := n.LowerBound(k)
	return i, i < n.Count() && n.Key(i) == k
}

// Get returns k's value in the image.
func (n *Node) Get(k uint64) (uint64, bool) {
	if i, found := n.Find(k); found {
		return n.Val(i), true
	}
	return 0, false
}

// Upsert updates k in place when present, else shift-inserts it. It
// reports a full node, which the caller must split first, and then
// writes nothing.
func (n *Node) Upsert(t *pmem.Thread, k, v uint64) (full bool) {
	i, found := n.Find(k)
	switch {
	case found:
		n.update(t, i, v)
	case n.Count() == MaxPairs:
		return true
	default:
		n.ShiftInsert(t, i, k, v)
	}
	return false
}

// Delete shift-deletes k when present.
func (n *Node) Delete(t *pmem.Thread, k uint64) {
	if i, found := n.Find(k); found {
		n.shiftDelete(t, i)
	}
}

// update overwrites pair i's value in place: one 8 B store, one flush.
func (n *Node) update(t *pmem.Thread, i int, v uint64) {
	a := n.pairAddr(i).Add(8)
	t.Store(a, v)
	t.Persist(a, 8)
	n.Words[pairBase+2*i+1] = v
}

// ShiftInsert is the FAST insertion at pos: shift pairs [pos, count)
// right by one with 8 B stores, high to low, write the new pair, flush
// the touched cachelines, then bump the count (flags kept).
func (n *Node) ShiftInsert(t *pmem.Thread, pos int, k, v uint64) {
	cnt := n.Count()
	for i := cnt - 1; i >= pos; i-- {
		t.Store(n.pairAddr(i+1), n.Key(i))
		t.Store(n.pairAddr(i+1).Add(8), n.Val(i))
		n.SetPair(i+1, n.Key(i), n.Val(i))
	}
	t.Store(n.pairAddr(pos), k)
	t.Store(n.pairAddr(pos).Add(8), v)
	n.SetPair(pos, k, v)
	t.Flush(n.pairAddr(pos), 16*(cnt-pos+1))
	t.Fence()
	n.SetMeta(n.Flags(), cnt+1)
	t.Store(n.Addr, n.Words[metaWord])
	t.Persist(n.Addr, 8)
}

// shiftDelete removes pair pos: shift the pairs after it left with 8 B
// stores, flush them, then drop the count (flags kept).
func (n *Node) shiftDelete(t *pmem.Thread, pos int) {
	cnt := n.Count()
	for j := pos; j < cnt-1; j++ {
		t.Store(n.pairAddr(j), n.Key(j+1))
		t.Store(n.pairAddr(j).Add(8), n.Val(j+1))
		n.SetPair(j, n.Key(j+1), n.Val(j+1))
	}
	if pos < cnt-1 {
		t.Flush(n.pairAddr(pos), 16*(cnt-1-pos))
		t.Fence()
	}
	n.SetMeta(n.Flags(), cnt-1)
	t.Store(n.Addr, n.Words[metaWord])
	t.Persist(n.Addr, 8)
}

// SplitLeaf moves the upper half of a full leaf into the
// caller-allocated node right (written and persisted whole, flags
// copied), then publishes it on n: link, then the shrunken count, one
// flush over the 16 B header. It returns right's low key.
func (n *Node) SplitLeaf(t *pmem.Thread, right pmem.Addr) uint64 {
	const mid = MaxPairs / 2
	r := Node{Addr: right}
	r.SetMeta(n.Flags(), MaxPairs-mid)
	r.SetLink(n.Link())
	for i := 0; i < MaxPairs-mid; i++ {
		r.SetPair(i, n.Key(mid+i), n.Val(mid+i))
	}
	r.Write(t)
	n.SetLink(right)
	t.Store(n.Addr.Add(8*linkWord), n.Words[linkWord])
	n.Shrink(t, mid)
	return r.Key(0)
}

// Shrink cuts n to its first c pairs: one count store (flags kept),
// persisted with the 16 B header.
func (n *Node) Shrink(t *pmem.Thread, c int) {
	n.SetMeta(n.Flags(), c)
	t.Store(n.Addr, n.Words[metaWord])
	t.Persist(n.Addr, 16)
}

// Scan fills out with up to max pairs with key ≥ start, from n's lower
// bound along the leaf chain. n is reused as the cursor.
func (n *Node) Scan(t *pmem.Thread, start uint64, max int, out []index.KV) int {
	if max > len(out) {
		max = len(out)
	}
	count := 0
	i := n.LowerBound(start)
	for count < max {
		for ; i < n.Count() && count < max; i++ {
			out[count] = index.KV{Key: n.Key(i), Value: n.Val(i)}
			count++
		}
		next := n.Link()
		if next.IsNil() || count >= max {
			break
		}
		n.Read(t, next)
		i = 0
	}
	return count
}
