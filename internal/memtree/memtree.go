// Package memtree is an in-DRAM B+-tree keyed by uint64 with generic
// values. It is the volatile layer of the baseline indexes in this
// repository — the directory of prim.Hybrid (FPTree's, LB+-Tree's and
// PACTree's inner nodes, uTree's shadow tree, FlatStore's key index),
// DPTree's global write buffer and the LSM's memtable — and the
// reference model the crash and read-property tests replay against.
// CCL-BTree does not use it: its inner layer is the seqlocked in-place
// tree in internal/core/inner.go.
//
// The tree is not synchronized; callers wrap it with their own
// concurrency control.
package memtree

import "sort"

// fanout is the maximum number of children of an internal node (and
// keys of a leaf). 32 keeps nodes around two cachelines of keys, close
// to the 256 B nodes the paper uses for DRAM layers.
const fanout = 32

type node[V any] struct {
	keys []uint64
	kids []*node[V] // internal nodes only
	vals []V        // leaves only
	next *node[V]   // leaf chain
	prev *node[V]   // leaf chain (FindLE across stale separators)
}

func (n *node[V]) leaf() bool { return n.kids == nil }

// Tree is the B+-tree. The zero value is an empty tree ready for use.
type Tree[V any] struct {
	root  *node[V]
	size  int
	depth int
}

// Len returns the number of entries.
func (t *Tree[V]) Len() int { return t.size }

// Depth returns the current height (0 when empty), which callers use to
// charge DRAM traversal cost to the virtual clock.
func (t *Tree[V]) Depth() int { return t.depth }

// search returns the index of the first key ≥ k in n.keys.
func search(keys []uint64, k uint64) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
}

// Get returns the value stored at exactly key.
func (t *Tree[V]) Get(key uint64) (V, bool) {
	var zero V
	n := t.root
	if n == nil {
		return zero, false
	}
	for !n.leaf() {
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			i++ // keys[i] is the lowest key of kids[i+1]
		}
		n = n.kids[i]
	}
	i := search(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.vals[i], true
	}
	return zero, false
}

// FindLE returns the entry with the greatest key ≤ key — the routing
// operation of a leaf-level directory ("which leaf owns this key").
func (t *Tree[V]) FindLE(key uint64) (uint64, V, bool) {
	var zero V
	n := t.root
	if n == nil {
		return 0, zero, false
	}
	for !n.leaf() {
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			i++
		}
		n = n.kids[i]
	}
	i := search(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.keys[i], n.vals[i], true
	}
	// Greatest key strictly below key: predecessor within this leaf.
	if i > 0 {
		return n.keys[i-1], n.vals[i-1], true
	}
	// Stale separators (deletes don't rewrite ancestors) can land the
	// descent one leaf too far right; the predecessor is then the last
	// entry of an earlier non-empty leaf.
	for p := n.prev; p != nil; p = p.prev {
		if len(p.keys) > 0 {
			return p.keys[len(p.keys)-1], p.vals[len(p.keys)-1], true
		}
	}
	return 0, zero, false
}

// Put inserts or overwrites key.
func (t *Tree[V]) Put(key uint64, val V) {
	if t.root == nil {
		t.root = &node[V]{keys: []uint64{key}, vals: []V{val}}
		t.size = 1
		t.depth = 1
		return
	}
	nk, nn := t.insert(t.root, key, val)
	if nn != nil {
		t.root = &node[V]{keys: []uint64{nk}, kids: []*node[V]{t.root, nn}}
		t.depth++
	}
}

// insert descends into n; on child split it returns the separator key
// and new right sibling to install in the parent.
func (t *Tree[V]) insert(n *node[V], key uint64, val V) (uint64, *node[V]) {
	if n.leaf() {
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			n.vals[i] = val
			return 0, nil
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, val)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		t.size++
		if len(n.keys) <= fanout {
			return 0, nil
		}
		mid := len(n.keys) / 2
		right := &node[V]{
			keys: append([]uint64(nil), n.keys[mid:]...),
			vals: append([]V(nil), n.vals[mid:]...),
			next: n.next,
			prev: n,
		}
		if right.next != nil {
			right.next.prev = right
		}
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = right
		return right.keys[0], right
	}
	i := search(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		i++
	}
	sk, sn := t.insert(n.kids[i], key, val)
	if sn == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sk
	n.kids = append(n.kids, nil)
	copy(n.kids[i+2:], n.kids[i+1:])
	n.kids[i+1] = sn
	if len(n.kids) <= fanout {
		return 0, nil
	}
	mid := len(n.keys) / 2
	up := n.keys[mid]
	right := &node[V]{
		keys: append([]uint64(nil), n.keys[mid+1:]...),
		kids: append([]*node[V](nil), n.kids[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.kids = n.kids[:mid+1]
	return up, right
}

// Delete removes key, reporting whether it was present. Nodes are
// allowed to underflow (the directory use case deletes rarely — only on
// leaf merges — so rebalancing complexity buys nothing here); empty
// leaves are unlinked lazily during iteration.
func (t *Tree[V]) Delete(key uint64) bool {
	n := t.root
	if n == nil {
		return false
	}
	for !n.leaf() {
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			i++
		}
		n = n.kids[i]
	}
	i := search(n.keys, key)
	if i >= len(n.keys) || n.keys[i] != key {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	t.size--
	return true
}

// Ascend calls fn for every entry with key ≥ from, in ascending key
// order, until fn returns false.
func (t *Tree[V]) Ascend(from uint64, fn func(key uint64, val V) bool) {
	n := t.root
	if n == nil {
		return
	}
	for !n.leaf() {
		i := search(n.keys, from)
		if i < len(n.keys) && n.keys[i] == from {
			i++
		}
		n = n.kids[i]
	}
	i := search(n.keys, from)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// Min returns the smallest entry.
func (t *Tree[V]) Min() (uint64, V, bool) {
	var zero V
	n := t.root
	if n == nil {
		return 0, zero, false
	}
	for !n.leaf() {
		n = n.kids[0]
	}
	for n != nil && len(n.keys) == 0 {
		n = n.next
	}
	if n == nil {
		return 0, zero, false
	}
	return n.keys[0], n.vals[0], true
}
