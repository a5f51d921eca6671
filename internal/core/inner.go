package core

import (
	"runtime"
	"sync/atomic"

	"cclbtree/internal/pmem"
)

// innerTree is the DRAM directory from routing keys (leaf low keys) to
// buffer nodes — the paper's inner-node layer (§4.1 follows FAST&FAIR's
// inner nodes: sorted nodes updated in place, lock-free reads; here a
// comparator-based B+-tree so the same structure routes fixed 8 B keys
// and variable-size indirection keys).
//
// Concurrency: structural modifications (separator insert on split,
// removal on merge) serialize on mu and mutate nodes in place between
// two increments of version, the tree-wide seqlock: one word suffices
// because writers already serialize. Searches take no lock: snapshot
// version, retry while it is odd, descend over atomic loads, re-check.
// A descent that overlapped a writer may have seen a half-shifted node,
// but every word it loaded was a key or a pointer some node of that
// level once held, counts never exceed the arrays, and children always
// sit one level down, so it terminates — and its result is discarded.
// Nodes are never unlinked (remove leaves emptied leaf-level nodes in
// place), so there is nothing to reclaim. A validated descent is at
// worst momentarily stale and routes to a buffer node that has since
// split or merged, which the buffer-node seqlock (rangeOK +
// validateRead) catches and retries — exactly the conflict path the
// paper's protocol prescribes.
type innerTree struct {
	mu      classedLock
	cmp     func(t *pmem.Thread, a, b uint64) int
	version atomic.Uint64
	root    atomic.Pointer[innerNode]
	size    atomic.Int64
	// path is the writer's root-to-leaf descent (see descend).
	path []innerStep
}

const innerFanout = 32

// innerNode is one directory node: n sorted keys and, at the leaf level,
// n vals; above it, n+1 kids (kids is nil exactly at the leaf level and
// fixed at creation). The arrays hold one entry past innerFanout so an
// insert lands before the overflow splits. No sibling links: the descent
// backtracks instead (see findLE).
type innerNode struct {
	n    atomic.Int32
	keys [innerFanout + 1]atomic.Uint64
	vals [innerFanout + 1]atomic.Pointer[bufferNode]
	kids *innerKids
}

type innerKids [innerFanout + 1]atomic.Pointer[innerNode]

// innerStep is one level of a writer's descent: the node and the index
// of the child followed (at the leaf level, of the first key ≥ the
// target).
type innerStep struct {
	n *innerNode
	i int
}

func (n *innerNode) leaf() bool { return n.kids == nil }

func newInnerTree(cmp func(t *pmem.Thread, a, b uint64) int) *innerTree {
	tr := &innerTree{cmp: cmp}
	tr.root.Store(&innerNode{})
	return tr
}

// locate returns the index of the first of n's keys ≥ k under the
// comparator, and whether that key equals k: one binary search plus at
// most one more comparator call, the same on the read and the write
// side. Hand-rolled: the sort.Search closure would be the only
// allocation left on the zero-alloc read path.
func (tr *innerTree) locate(t *pmem.Thread, n *innerNode, k uint64) (i int, eq bool) {
	cnt := int(n.n.Load())
	lo, hi := 0, cnt
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tr.cmp(t, n.keys[mid].Load(), k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < cnt && tr.cmp(t, n.keys[lo].Load(), k) == 0
}

// findLE returns the buffer node with the greatest routing key ≤ key,
// without taking any lock. Charges the DRAM traversal cost of the
// descent that validated to t.
func (tr *innerTree) findLE(t *pmem.Thread, key uint64) *bufferNode {
	for {
		ver := tr.version.Load()
		if ver&1 != 0 {
			runtime.Gosched() // the writer may need this P to finish
			continue
		}
		depth := int64(0)
		v := tr.findLERec(t, tr.root.Load(), key, &depth)
		if tr.version.Load() == ver {
			t.Advance(depth * 8 * t.CostDRAM())
			return v
		}
	}
}

// findLERec descends toward key. Separator keys in ancestors can go
// stale after merges remove routing entries, so the natural child may
// own nothing ≤ key (including emptied leaf-level nodes); every child
// to the left holds only keys < key, so backtracking one child at a
// time finds the true predecessor without sibling links.
func (tr *innerTree) findLERec(t *pmem.Thread, n *innerNode, key uint64, depth *int64) *bufferNode {
	*depth++
	i, eq := tr.locate(t, n, key)
	if n.leaf() {
		if eq {
			return n.vals[i].Load()
		}
		if i > 0 {
			return n.vals[i-1].Load()
		}
		// Key sorts below this subtree; the caller backtracks (or, at
		// the root, uses the head).
		return nil
	}
	if eq {
		i++
	}
	for ; i >= 0; i-- {
		// A nil kid is a slot a racing writer has not filled yet.
		if kid := n.kids[i].Load(); kid != nil {
			if v := tr.findLERec(t, kid, key, depth); v != nil {
				return v
			}
		}
	}
	return nil
}

// descend records the writer's path to the leaf-level node key belongs
// in and reports whether that node holds key at the final index.
// Callers hold mu; all comparator work happens here, before version
// goes odd.
func (tr *innerTree) descend(t *pmem.Thread, key uint64) ([]innerStep, bool) {
	path := tr.path[:0]
	for n := tr.root.Load(); ; {
		i, eq := tr.locate(t, n, key)
		if n.leaf() {
			tr.path = append(path, innerStep{n, i})
			return tr.path, eq
		}
		if eq {
			i++
		}
		path = append(path, innerStep{n, i})
		n = n.kids[i].Load()
	}
}

// put inserts a routing entry (split publication).
func (tr *innerTree) put(t *pmem.Thread, key uint64, v *bufferNode) {
	defer tr.mu.unlock(tr.mu.lock())
	path, eq := tr.descend(t, key)
	lv := len(path) - 1
	tr.version.Add(1)
	if eq {
		path[lv].n.vals[path[lv].i].Store(v)
	} else {
		tr.size.Add(1)
		upKey, sib := path[lv].n.insertVal(path[lv].i, key, v)
		for lv--; sib != nil && lv >= 0; lv-- {
			upKey, sib = path[lv].n.insertKid(path[lv].i, upKey, sib)
		}
		if sib != nil {
			root := &innerNode{kids: new(innerKids)}
			root.keys[0].Store(upKey)
			root.kids[0].Store(path[0].n)
			root.kids[1].Store(sib)
			root.n.Store(1)
			tr.root.Store(root)
		}
	}
	tr.version.Add(1)
}

// insertVal opens slot i of a leaf-level node for (key, v). On overflow
// the upper half moves to a new right sibling, returned with its
// separator.
func (n *innerNode) insertVal(i int, key uint64, v *bufferNode) (uint64, *innerNode) {
	cnt := int(n.n.Load())
	for j := cnt; j > i; j-- {
		n.keys[j].Store(n.keys[j-1].Load())
		n.vals[j].Store(n.vals[j-1].Load())
	}
	n.keys[i].Store(key)
	n.vals[i].Store(v)
	if cnt++; cnt <= innerFanout {
		n.n.Store(int32(cnt))
		return 0, nil
	}
	mid := cnt / 2
	right := &innerNode{}
	for j := mid; j < cnt; j++ {
		right.keys[j-mid].Store(n.keys[j].Load())
		right.vals[j-mid].Store(n.vals[j].Load())
		n.vals[j].Store(nil) // do not pin buffer nodes from a vacated slot
	}
	right.n.Store(int32(cnt - mid))
	n.n.Store(int32(mid))
	return right.keys[0].Load(), right
}

// insertKid places sib, the new right sibling of kid i, with its
// separator. On overflow (more than innerFanout kids) the middle key
// moves up and the kids right of it to a new sibling.
func (n *innerNode) insertKid(i int, upKey uint64, sib *innerNode) (uint64, *innerNode) {
	cnt := int(n.n.Load())
	for j := cnt; j > i; j-- {
		n.keys[j].Store(n.keys[j-1].Load())
		n.kids[j+1].Store(n.kids[j].Load())
	}
	n.keys[i].Store(upKey)
	n.kids[i+1].Store(sib)
	if cnt++; cnt < innerFanout {
		n.n.Store(int32(cnt))
		return 0, nil
	}
	mid := cnt / 2
	right := &innerNode{kids: new(innerKids)}
	right.kids[0].Store(n.kids[mid+1].Load())
	for j := mid + 1; j < cnt; j++ {
		right.keys[j-mid-1].Store(n.keys[j].Load())
		right.kids[j-mid].Store(n.kids[j+1].Load())
	}
	right.n.Store(int32(cnt - mid - 1))
	n.n.Store(int32(mid))
	return n.keys[mid].Load(), right
}

// remove deletes a routing entry (merge publication). The leaf-level
// node may end up empty; findLE's backtracking tolerates that, so no
// rebalancing is needed (routing entries are sparse and re-splits of
// the same region re-populate it).
func (tr *innerTree) remove(t *pmem.Thread, key uint64) bool {
	defer tr.mu.unlock(tr.mu.lock())
	path, eq := tr.descend(t, key)
	if !eq {
		return false
	}
	n, i := path[len(path)-1].n, path[len(path)-1].i
	last := int(n.n.Load()) - 1
	tr.version.Add(1)
	for ; i < last; i++ {
		n.keys[i].Store(n.keys[i+1].Load())
		n.vals[i].Store(n.vals[i+1].Load())
	}
	n.vals[last].Store(nil)
	n.n.Store(int32(last))
	tr.version.Add(1)
	tr.size.Add(-1)
	return true
}

// entries reports the routing-entry count (for memory accounting).
func (tr *innerTree) entries() int {
	return int(tr.size.Load())
}
