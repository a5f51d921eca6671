package core

import (
	"bytes"
	"sort"

	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
	"cclbtree/internal/wal"
)

// Directory is the index half of a Tree (DESIGN.md "Engine and
// directories"): it maps a key to its buffer node, orders a group's runs
// and owns the PM lines behind each node; the engine owns everything
// else. The tree's inner index is one (New, Open), internal/cclhash's
// bucket array the other (NewIndex, OpenIndex). Methods that take a node
// run under its lock, except Search, inside an optimistic read. The node
// chain (Tree.head, next) runs in Compare order: every key a node owns
// sorts before every key its successors own. Recovery routes the log by
// walking the chain beside the records sorted in that order.
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
	// Stage and Publish flush batch (later entries win) into n's lines
	// crash-consistently, as one node of a wave (wave.go). Stage writes
	// the data words and flushes them, without a fence, and keeps in s
	// what Publish needs; it sets s.Flushed when it flushed, and s.Done
	// when it published n itself.
	Stage(w *Worker, n *Node, s *Staged, batch []KV) error
	// Publish runs once the wave's fence has made the staged data
	// durable: it stamps n's line (Worker.Stamp) and writes and flushes
	// its header, without a fence, and sets s.Live. Recovery replays a
	// record only while it is newer than the stamp on n's line.
	Publish(w *Worker, n *Node, s *Staged)
	// Search probes n's lines for key, whose engine fingerprint is fp.
	Search(w *Worker, n *Node, key uint64, fp byte) (uint64, bool)
	// Build lays out an empty index when rb is nil and returns the
	// superblock's root word; given an image's root and rb, it rebuilds
	// the nodes, following every chain through rb (Follow, Line), which
	// checks each line and records the stamp on it; the lines a chain
	// reaches in recorded carves come from discovery's table. It must
	// not write a stamp: replay gates a node's records by the stamp
	// recorded for its line.
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
// from an image. Before Build runs, discovery has read every line of
// every recorded carve into a DRAM table (found), in parallel; Build
// then follows its chains over that table, and Rebuild checks every
// line a chain reaches, for both directories.
type Rebuild struct {
	tr      *Tree
	t       *pmem.Thread
	maxEnd  []uint64
	maxTick uint64
	// stamps holds the stamp on every line a chain reached; recovery
	// gates each record against its node's line from here instead of
	// reading the stamp from PM again.
	stamps map[pmem.Addr]uint64
	// carves are the recorded carves in address order; found[i] holds
	// the lines of carves[i] as discovery read them.
	carves []pmalloc.Carve
	found  [][]foundLine
	st     *RecoveryStats
}

// foundLine is one line as discovery read it: its header words, its
// smallest valid key, and what its slots hold beyond plain words.
type foundLine struct {
	ts, meta, lowKey uint64
	extra            *lineExtra // nil: every pair possible, no blob word
}

// lineExtra is the rest of a line's word check: the first impossible
// pair, or the blobs the pairs point to.
type lineExtra struct {
	err   error
	blobs []blobSpan
}

// blobSpan is one blob a word points to.
type blobSpan struct {
	a    pmem.Addr
	size int64
}

func (f *foundLine) next() pmem.Addr { _, n := pmleaf.UnpackMeta(f.meta); return n }

// readLine reads the line at a on t into a foundLine. The word check
// and the low key are the tree's rules; another directory's words are
// raw (see words), and it uses only the header.
func (rb *Rebuild) readLine(t *pmem.Thread, a pmem.Addr) foundLine {
	var img pmleaf.Image
	img.Read(t, a)
	f := foundLine{ts: img.TS(), meta: img.Meta()}
	var x lineExtra
	first := true
	for i := 0; i < LeafSlots && x.err == nil; i++ {
		if !img.Valid(i) {
			continue
		}
		k := img.Key(i)
		if x.blobs, x.err = rb.words(t, k, img.Val(i), x.blobs); x.err == nil &&
			(first || rb.tr.compare(t, k, f.lowKey) < 0) {
			f.lowKey = k
			first = false
		}
	}
	if x.err != nil || len(x.blobs) > 0 {
		f.extra = &x
	}
	return f
}

// discover reads carve i's lines into the table on t: one sequential
// run of PM reads, one DRAM table entry per line.
func (rb *Rebuild) discover(t *pmem.Thread, i int) {
	c := rb.carves[i]
	lines := make([]foundLine, c.Lines)
	for j := range lines {
		lines[j] = rb.readLine(t, c.Start.Add(int64(j*LeafBytes)))
		t.Advance(t.CostDRAM())
	}
	rb.found[i] = lines
}

// record is one valid log record as recovery routes it; key holds the
// key's bytes in var-KV mode, read once at scan time.
type record struct {
	kv  KV
	ts  uint64
	key []byte
}

// order compares two records in the directory's Compare order; in
// var-KV mode (the tree's byte order) on their key bytes in DRAM, so a
// sort re-reads no blob.
func (tr *Tree) order(t *pmem.Thread, a, b *record) int {
	if tr.opts.VarKV {
		return bytes.Compare(a.key, b.key)
	}
	return tr.index.Compare(t, a.kv.Key, b.kv.Key)
}

// scanned is one phase thread's checked share of the log, and what it
// adds to the image's reach.
type scanned struct {
	recs    []record
	maxEnd  []uint64 // per socket, as Rebuild.maxEnd
	maxTick uint64
	dropped int
}

// check keeps the records of ents whose words could have come from a
// real append in this index, on t. One that fails is dropped rather
// than fatal, unlike structural corruption: recycled chunks
// legitimately hold residue, and recovery's job is to replay what is
// provably intact.
func (rb *Rebuild) check(t *pmem.Thread, ents []wal.Entry) scanned {
	sc := scanned{recs: make([]record, 0, len(ents)), maxEnd: make([]uint64, len(rb.maxEnd))}
	var blobs []blobSpan
	for _, e := range ents {
		var err error
		if blobs, err = rb.words(t, e.Key, e.Value, blobs[:0]); err != nil {
			sc.dropped++
			continue
		}
		for _, b := range blobs {
			reach(sc.maxEnd, b.a, b.size)
		}
		sc.maxTick = max(sc.maxTick, e.Timestamp)
		r := record{kv: KV{e.Key, e.Value}, ts: e.Timestamp}
		if rb.tr.opts.VarKV {
			r.key = readBlob(t, e.Key)
		}
		sc.recs = append(sc.recs, r)
	}
	return sc
}

// lookup returns the table entry of the line at a, if a recorded carve
// holds it.
func (rb *Rebuild) lookup(a pmem.Addr) (foundLine, bool) {
	i := sort.Search(len(rb.carves), func(i int) bool { return rb.carves[i].Start > a }) - 1
	if i < 0 {
		return foundLine{}, false
	}
	c := rb.carves[i]
	j := int(uint64(a-c.Start) / LeafBytes)
	if j >= c.Lines || rb.found[i] == nil {
		return foundLine{}, false
	}
	return rb.found[i][j], true
}

// follow returns the line a chain reaches at a (the root, or a next
// pointer) from the table, checked and recorded as Line does. A line
// outside every recorded carve is read from PM here and counted
// (RecoveryStats.UncarvedLines): the carve directory only speeds
// discovery up, the chain decides what is live.
func (rb *Rebuild) follow(a pmem.Addr) (foundLine, error) {
	if err := nextLeaf(rb.tr.pool, a, rb.stamps); err != nil {
		return foundLine{}, err
	}
	rb.t.Advance(rb.t.CostDRAM())
	f, ok := rb.lookup(a)
	if !ok {
		f = rb.readLine(rb.t, a)
		rb.st.UncarvedLines++
	}
	return f, rb.record(a, f.ts)
}

// Follow checks a next pointer a line holds before the directory
// follows it, and returns the next pointer of the line it names (nil
// ends the chain). The line is recorded as Line records it.
func (rb *Rebuild) Follow(next pmem.Addr) (pmem.Addr, error) {
	f, err := rb.follow(next)
	return f.next(), err
}

// Line records a line the directory reached and the stamp on it: the
// allocator resumes above every reachable line, the clock above every
// stamp, and replay gates the line's records by the stamp. A line must
// lie on the device, leaf-aligned, reached once, and carry a stamp the
// clock could have drawn (anything larger is corruption, and would
// poison the resumed clock).
func (rb *Rebuild) Line(a pmem.Addr, ts uint64) error {
	if err := nextLeaf(rb.tr.pool, a, rb.stamps); err != nil {
		return err
	}
	return rb.record(a, ts)
}

// record is Line after nextLeaf's check.
func (rb *Rebuild) record(a pmem.Addr, ts uint64) error {
	if ts > wal.MaxTick {
		return corruptf("line", a, "flush timestamp %#x impossible", ts)
	}
	rb.track(a, LeafBytes)
	rb.maxTick = max(rb.maxTick, ts)
	rb.stamps[a] = ts
	return nil
}

func (rb *Rebuild) track(a pmem.Addr, size int64) { reach(rb.maxEnd, a, size) }

// reach raises maxEnd, the end of the reachable objects per socket, to
// cover the size bytes at a.
func reach(maxEnd []uint64, a pmem.Addr, size int64) {
	maxEnd[a.Socket()] = max(maxEnd[a.Socket()], a.Offset()+uint64(size))
}

// words checks that a stored pair is possible in this index, on t, and
// appends the blobs it points to to blobs. The superblock's VarKV flag
// is itself untrusted, and a flipped flag would otherwise make recovery
// (and every later lookup) chase plain integers as blob pointers or vice
// versa. Another directory's words are raw: any nonzero key.
func (rb *Rebuild) words(t *pmem.Thread, k, v uint64, blobs []blobSpan) ([]blobSpan, error) {
	_, tree := rb.tr.index.(treeDir)
	switch varKV := rb.tr.opts.VarKV; {
	case !tree && k != 0:
		return blobs, nil
	case !tree, varKV && !IsBlobWord(k), !varKV && (k < 1 || k > MaxValue),
		v != Tombstone && !IsBlobWord(v) && (varKV || v > MaxValue):
		// Tombstones and out-of-band blobs occur in both modes.
		return blobs, corruptf("words", pmem.NilAddr, "%#x/%#x impossible in this mode", k, v)
	}
	blobs, err := rb.blob(t, k, blobs)
	if err != nil {
		return blobs, err
	}
	return rb.blob(t, v, blobs)
}

// blob validates an indirection pointer before chasing it and appends
// the blob it names.
func (rb *Rebuild) blob(t *pmem.Thread, w uint64, blobs []blobSpan) ([]blobSpan, error) {
	if !IsBlobWord(w) {
		return blobs, nil
	}
	a := blobAddr(w)
	if !rb.tr.pool.ValidRange(a, pmem.WordSize) || a.Offset()%pmem.WordSize != 0 {
		return blobs, corruptf("blob", a, "pointer invalid")
	}
	n := int64(t.Load(a))
	if n < 0 || n > blobArenaChunk {
		return blobs, corruptf("blob", a, "length %d impossible", n)
	}
	size := 8 * (1 + (n+7)/8)
	if !rb.tr.pool.ValidRange(a, size) {
		return blobs, corruptf("blob", a, "%d-byte blob runs off the device", n)
	}
	return append(blobs, blobSpan{a, size}), nil
}

// nextLeaf checks a line address a chain walk (Rebuild, Inspect) is
// about to follow, against seen, the lines the walk has reached: nil
// ends the chain; anything else must be a leaf-aligned line on the
// device that the walk has not reached yet. The caller adds it to seen.
func nextLeaf[V any](pool *pmem.Pool, next pmem.Addr, seen map[pmem.Addr]V) error {
	switch _, again := seen[next]; {
	case next.IsNil():
		return nil
	case !pool.ValidRange(next, LeafBytes) || next.Offset()%LeafBytes != 0:
		return corruptf("line chain", next, "next pointer invalid")
	case again:
		return corruptf("line chain", next, "cycle detected")
	}
	return nil
}

// treeDir is the tree's directory: the inner index over the leaf list,
// with stageLeaf/publishLeaf, splitLeaf and tryMerge behind its waves.
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

// Stage and Publish charge a foreground leaf write to leafbuf (see
// stageLeaf).
func (d treeDir) Stage(w *Worker, n *Node, s *Staged, batch []KV) error {
	if w.t.Scope() == pmem.ScopeNone {
		defer w.t.PopScope(w.t.PushScope(pmem.ScopeLeafBuf))
	}
	return w.stageLeaf(n, s, batch, pmem.NilAddr, false)
}

func (d treeDir) Publish(w *Worker, n *Node, s *Staged) {
	if w.t.Scope() == pmem.ScopeNone {
		defer w.t.PopScope(w.t.PushScope(pmem.ScopeLeafBuf))
	}
	w.publishLeaf(n, s)
}

// Build makes the empty head leaf anchoring the leaf list, or follows
// the persistent leaf list of an image over discovery's table,
// rebuilding buffer nodes, the DRAM chain and the inner index: a DRAM
// pass, but for the leaves the carve directory missed. Empty non-head
// leaves are unlinked and reclaimed on the way.
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
	var slab nodeSlab
	var prevNode *bufferNode
	var prevMeta uint64
	for cur := headLeaf; !cur.IsNil(); {
		f, err := rb.follow(cur)
		if err != nil {
			return headLeaf, err
		}
		bm, next := pmleaf.UnpackMeta(f.meta)
		if bm == 0 && cur != headLeaf {
			// Unlink: predecessor's meta gets our successor, one
			// atomic word. The leaf is reclaimed.
			prevLeaf := prevNode.leaf
			prevBM, _ := pmleaf.UnpackMeta(prevMeta)
			prevMeta = pmleaf.PackMeta(prevBM, next)
			t.Store(pmleaf.MetaAddr(prevLeaf), prevMeta)
			t.Persist(prevLeaf, pmem.WordSize)
			tr.alloc.Free(cur, LeafBytes)
			rb.st.EmptyLeavesReclaimed++
			cur = next
			continue
		}
		if x := f.extra; x != nil {
			if x.err != nil {
				return headLeaf, x.err
			}
			for _, b := range x.blobs {
				rb.track(b.a, b.size)
			}
		}
		lowKey := f.lowKey
		if cur == headLeaf {
			lowKey = 0
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
		prevNode, prevMeta = n, f.meta
		cur = next
	}
	return headLeaf, nil
}
