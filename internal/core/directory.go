package core

import (
	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
	"cclbtree/internal/wal"
)

// Directory is the index half of a Tree (DESIGN.md "Engine and
// directories"): it maps a key to its buffer node, orders a group's runs
// and owns the PM lines behind each node; the engine owns everything
// else. The tree's inner index is one (New, Open), internal/cclhash's
// bucket array the other (NewIndex, OpenIndex). Methods that take a node
// run under its lock, except Search, inside an optimistic read.
type Directory interface {
	// Find routes key to a node; the engine re-checks Owns under the
	// node's lock and routes again on a miss.
	Find(t *pmem.Thread, key uint64) *Node
	Owns(t *pmem.Thread, n *Node, key uint64) bool
	// Compare orders a group's keys: one node's keys together, nodes in
	// one order every writer shares, since a group locks its runs in it.
	Compare(t *pmem.Thread, a, b uint64) int
	// RunEnd counts the leading keys of the sorted kvs n owns (kvs[0]).
	RunEnd(t *pmem.Thread, n *Node, kvs []KV) int
	// Flush applies batch (later entries win) to n's lines crash-
	// consistently, stamping them (Worker.Stamp) only once the data is
	// durable: recovery replays a record only while it is newer than the
	// stamp on n's line. It returns n's live KV count; under half a leaf
	// the engine tries a merge.
	Flush(w *Worker, n *Node, batch []KV) (live int, err error)
	// Search probes n's lines for key, whose engine fingerprint is fp.
	Search(w *Worker, n *Node, key uint64, fp byte) (uint64, bool)
	// Build lays out an empty index when rb is nil and returns the
	// superblock's root word; given an image's root and rb, it rebuilds
	// the nodes, reporting every line it reaches, with the stamp it
	// read there, through rb.Line. It runs beside the log scan and
	// must not write a stamp: replay gates a node's records by the
	// stamp reported for its line.
	Build(tr *Tree, t *pmem.Thread, root pmem.Addr, rb *Rebuild) (pmem.Addr, error)
}

// Node is a buffer node as a directory sees it.
type Node = bufferNode

// Line returns the PM line n fronts: a leaf, or a home bucket.
func (n *bufferNode) Line() pmem.Addr { return n.leaf }

// Link makes one buffer node per home line, chained in order, and adds
// lines to the line count the GC trigger weighs the log against.
func (tr *Tree) Link(homes []pmem.Addr, lines int) []*Node {
	var slab nodeSlab
	var prev *Node
	nodes := make([]*Node, len(homes))
	for i, a := range homes {
		prev = tr.chain(&slab, prev, a, 0)
		nodes[i] = prev
	}
	tr.leafCount.Add(int64(lines))
	return nodes
}

// chain appends a node for leaf after prev (nil: as the head).
func (tr *Tree) chain(slab *nodeSlab, prev *bufferNode, leaf pmem.Addr, lowKey uint64) *bufferNode {
	n := slab.newNode(leaf, lowKey, tr.opts.Nbatch)
	if prev == nil {
		tr.head = n
	} else {
		prev.next.Store(n)
		n.prev.Store(prev)
	}
	return n
}

// NewLine allocates and counts one more line on the worker's socket.
func (w *Worker) NewLine() (pmem.Addr, error) { return w.tree.newLeaf(w.t, w.socket) }

// Rebuild is Open's bookkeeping while a directory rebuilds its nodes
// from an image.
type Rebuild struct {
	tr      *Tree
	t       *pmem.Thread
	maxEnd  []uint64
	maxTick uint64
	// stamps holds the stamp the walk read on every line it reached;
	// recovery gates each record against its node's line from here
	// instead of reading the stamp from PM again.
	stamps map[pmem.Addr]uint64
	st     *RecoveryStats
}

// Line records a line the directory reached and the stamp on it: the
// allocator resumes above every reachable line, the clock above every
// stamp, and replay gates the line's records by the stamp.
func (rb *Rebuild) Line(a pmem.Addr, ts uint64) {
	rb.track(a, LeafBytes)
	rb.maxTick = max(rb.maxTick, ts)
	rb.stamps[a] = ts
}

func (rb *Rebuild) track(a pmem.Addr, size int64) {
	if end := a.Offset() + uint64(size); end > rb.maxEnd[a.Socket()] {
		rb.maxEnd[a.Socket()] = end
	}
}

// words checks that a stored pair is possible in this index and extends
// the allocator's high-water mark over the blobs it points to. The
// superblock's VarKV flag is itself untrusted, and a flipped flag would
// otherwise make recovery (and every later lookup) chase plain integers
// as blob pointers or vice versa. Another directory's words are raw: any
// nonzero key.
func (rb *Rebuild) words(k, v uint64) error {
	_, tree := rb.tr.index.(treeDir)
	switch varKV := rb.tr.opts.VarKV; {
	case !tree && k != 0:
		return nil
	case !tree, varKV && !IsBlobWord(k), !varKV && (k < 1 || k > MaxValue),
		v != Tombstone && !IsBlobWord(v) && (varKV || v > MaxValue):
		// Tombstones and out-of-band blobs occur in both modes.
		return corruptf("words", pmem.NilAddr, "%#x/%#x impossible in this mode", k, v)
	}
	if err := rb.trackWord(k); err != nil {
		return err
	}
	return rb.trackWord(v)
}

// trackWord validates an indirection pointer before chasing it and
// extends the allocator high-water mark over the blob it names.
func (rb *Rebuild) trackWord(w uint64) error {
	if !IsBlobWord(w) {
		return nil
	}
	a := blobAddr(w)
	if !rb.tr.pool.ValidRange(a, pmem.WordSize) || a.Offset()%pmem.WordSize != 0 {
		return corruptf("blob", a, "pointer invalid")
	}
	n := int64(rb.t.Load(a))
	if n < 0 || n > blobArenaChunk {
		return corruptf("blob", a, "length %d impossible", n)
	}
	size := 8 * (1 + (n+7)/8)
	if !rb.tr.pool.ValidRange(a, size) {
		return corruptf("blob", a, "%d-byte blob runs off the device", n)
	}
	rb.track(a, size)
	return nil
}

// nextLeaf checks the next pointer of a leaf a walk of the leaf list
// (Build, Inspect) stands on, before the walk follows it: nil ends the
// list; anything else must be a leaf-aligned line on the device that the
// walk has not reached yet (seen, which gains it).
func nextLeaf(pool *pmem.Pool, next pmem.Addr, seen map[pmem.Addr]bool) error {
	switch {
	case next.IsNil():
		return nil
	case !pool.ValidRange(next, LeafBytes) || next.Offset()%LeafBytes != 0:
		return corruptf("leaf list", next, "next pointer invalid")
	case seen[next]:
		return corruptf("leaf list", next, "cycle detected")
	}
	seen[next] = true
	return nil
}

// treeDir is the tree's directory: the inner index over the leaf list,
// with leafBatchInsert/splitLeaf/tryMerge behind Flush.
type treeDir struct{ tr *Tree }

func (d treeDir) Find(t *pmem.Thread, key uint64) *Node {
	if n := d.tr.inner.findLE(t, key); n != nil {
		return n
	}
	return d.tr.head
}

func (d treeDir) Owns(t *pmem.Thread, n *Node, key uint64) bool {
	nx := n.next.Load()
	return !n.dead() && (n.lowKey == 0 || d.tr.compare(t, key, n.lowKey) >= 0) &&
		(nx == nil || d.tr.compare(t, key, nx.lowKey) < 0)
}

func (d treeDir) Compare(t *pmem.Thread, a, b uint64) int { return d.tr.compare(t, a, b) }

// RunEnd compares only the right boundary: lockOwner checked kvs[0].
func (d treeDir) RunEnd(t *pmem.Thread, n *Node, kvs []KV) int {
	nx, end := n.next.Load(), 1
	for end < len(kvs) && (nx == nil || d.tr.compare(t, kvs[end].Key, nx.lowKey) < 0) {
		end++
	}
	return end
}

func (d treeDir) Flush(w *Worker, n *Node, batch []KV) (int, error) {
	return w.leafBatchInsert(n, batch)
}

// Build makes the empty head leaf anchoring the leaf list, or walks the
// persistent leaf list of an image, rebuilding buffer nodes, the DRAM
// chain and the inner index. Empty non-head leaves are unlinked and
// reclaimed on the way.
func (d treeDir) Build(tr *Tree, t *pmem.Thread, headLeaf pmem.Addr, rb *Rebuild) (pmem.Addr, error) {
	if rb == nil {
		headLeaf, err := tr.newLeaf(t, tr.opts.HomeSocket)
		if err != nil {
			return headLeaf, err
		}
		pmleaf.WriteWhole(t, &pmleaf.Image{Addr: headLeaf})
		tr.inner.put(t, 0, tr.chain(new(nodeSlab), nil, headLeaf, 0))
		return headLeaf, nil
	}
	pool := tr.pool
	var slab nodeSlab
	var prevNode *bufferNode
	prevLeaf := pmem.NilAddr
	seen := map[pmem.Addr]bool{headLeaf: true}
	cur := headLeaf
	for !cur.IsNil() {
		var img pmleaf.Image
		img.Read(t, cur)
		// Leaf flush timestamps come from the same clock that stamps WAL
		// entries, so they share its bound; anything larger is corruption
		// (and would poison the resumed clock).
		if img.TS() > wal.MaxTick {
			return headLeaf, corruptf("leaf", cur, "flush timestamp %#x impossible", img.TS())
		}
		rb.Line(cur, img.TS())
		next := img.Next()
		if err := nextLeaf(pool, next, seen); err != nil {
			return headLeaf, err
		}
		if img.Bitmap() == 0 && cur != headLeaf {
			// Unlink: predecessor's meta gets our successor, one
			// atomic word. The leaf is reclaimed.
			var pimg pmleaf.Image
			pimg.Read(t, prevLeaf)
			pimg.SetMeta(pmleaf.PackMeta(pimg.Bitmap(), next))
			t.Store(pmleaf.MetaAddr(prevLeaf), pimg.Meta())
			t.Persist(prevLeaf, pmem.WordSize)
			tr.alloc.Free(cur, LeafBytes)
			rb.st.EmptyLeavesReclaimed++
			cur = next
			continue
		}
		for i := 0; i < LeafSlots; i++ {
			if !img.Valid(i) {
				continue
			}
			if err := rb.words(img.Key(i), img.Val(i)); err != nil {
				return headLeaf, err
			}
		}
		lowKey := uint64(0)
		if cur != headLeaf {
			first := true
			for i := 0; i < LeafSlots; i++ {
				if !img.Valid(i) {
					continue
				}
				if first || tr.compare(t, img.Key(i), lowKey) < 0 {
					lowKey = img.Key(i)
					first = false
				}
			}
		}
		// Leaves must be ordered: low keys strictly increase along the
		// chain. A violation would send the replay router in circles
		// (Find routes by key order, Owns checks chain order).
		if prevNode != nil && tr.compare(t, lowKey, prevNode.lowKey) <= 0 {
			return headLeaf, corruptf("leaf list", cur, "low keys out of order")
		}
		n := tr.chain(&slab, prevNode, cur, lowKey)
		tr.inner.put(t, lowKey, n)
		tr.leafCount.Add(1)
		prevNode = n
		prevLeaf = cur
		cur = next
	}
	return headLeaf, nil
}
