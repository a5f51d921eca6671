package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"

	"cclbtree/internal/obs"
	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
)

// Search performs the §4.3 point lookup inside n's PM leaf: read the
// 32 B header (one cacheline), filter candidate slots by validity
// bitmap and the key's fingerprint target, then read only matching
// slots.
func (d treeDir) Search(w *Worker, n *Node, key uint64, target byte) (uint64, bool) {
	tr, leaf := d.tr, n.leaf
	var hdr pmleaf.Image
	hdr.ReadHeader(w.t, leaf)
	bitmap := hdr.Bitmap()
	for i := 0; i < LeafSlots; i++ {
		if bitmap&(1<<uint(i)) == 0 || hdr.FPAt(i) != target {
			continue
		}
		slot := pmleaf.SlotAddr(leaf, i)
		if tr.compare(w.t, w.t.Load(slot), key) != 0 {
			continue
		}
		return w.t.Load(slot.Add(8)), true
	}
	return 0, false
}

// findLeafSlot locates key among the slots set in bitmap, using the
// fingerprint array of img to avoid comparisons.
func (w *Worker) findLeafSlot(img *pmleaf.Image, bitmap uint16, key uint64) int {
	target := w.tree.keyFingerprint(w.t, key)
	for i := 0; i < LeafSlots; i++ {
		if bitmap&(1<<uint(i)) == 0 || img.FPAt(i) != target {
			continue
		}
		if w.tree.compare(w.t, img.Key(i), key) == 0 {
			return i
		}
	}
	return -1
}

// Stamp draws the next tick of n, whose lock the caller holds, for one
// of its WAL records, line stamps or GC copies: the current ORDO tick of
// the worker's socket, raised above the last tick drawn for n. Sockets'
// ticks are skewed, so the raw tick of a later holder of the lock can
// fall below an earlier holder's; the floor makes every node's ticks
// follow its lock order, which is the order recovery needs: a line's
// stamp outranks every record it covers, and a key's newest record
// outranks its older ones.
func (w *Worker) Stamp(n *Node) uint64 {
	n.floor = max(w.tree.clock.Now(w.socket), n.floor+1)
	return n.floor
}

// leafBatchInsert applies batch (in order — later entries supersede
// earlier ones) to n's leaf with the §4.2 three-step protocol, as a
// wave of one (wave.go): stageLeaf's steps 1+2, one sfence,
// publishLeaf's step 3, one sfence. It returns the leaf's live KV
// count afterwards. The split's follow-up and the merge flush here;
// every other leaf write goes through the engine's waves, under the
// same two halves.
func (w *Worker) leafBatchInsert(n *bufferNode, batch []KV) (int, error) {
	return w.leafBatchInsertNext(n, batch, pmem.NilAddr, false)
}

func (w *Worker) leafBatchInsertNext(n *bufferNode, batch []KV, newNext pmem.Addr, overrideNext bool) (int, error) {
	if w.t.Scope() == pmem.ScopeNone {
		defer w.t.PopScope(w.t.PushScope(pmem.ScopeLeafBuf))
	}
	var s Staged
	if err := w.stageLeaf(n, &s, batch, newNext, overrideNext); err != nil || s.Done {
		return s.Live, err
	}
	if s.Flushed {
		w.t.Fence()
	}
	w.publishLeaf(n, &s)
	w.t.Fence()
	return s.Live, nil
}

// stageLeaf is the first half of a leaf write:
//
//  1. write new/updated KVs into slots, unsorted;
//  2. flush the modified data cachelines (the wave fences them);
//
// and, in s.Img, the header step 3 publishes: fingerprints, bitmap and
// next. New keys only occupy slots that were free under the pre-batch
// bitmap, so nothing becomes visible before the header publishes.
// Splits when the batch does not fit (unless the caller pins next, in
// which case capacity was pre-checked): the split orders its own
// persists and publishes n itself (s.Done).
//
// The caller charges the flushes to leafbuf when no task scope is
// active; a GC- or recovery-driven flush stays charged to its task, so
// "gc" media bytes remain visibly gc-caused (the nesting contract in
// pmem.Scope).
func (w *Worker) stageLeaf(n *bufferNode, s *Staged, batch []KV, newNext pmem.Addr, overrideNext bool) error {
	tr := w.tree
	img := &s.Img
	tr.tracer.Emit(obs.EvFlushBatch, w.id, w.t.Now(), uint64(len(batch)), uint64(n.lowKey))
	img.Read(w.t, n.leaf)

	orig := img.Bitmap()
	cur := orig
	var assigned uint16 // slots given to new keys in this batch
	var dirty, fps pmleaf.Span

	for _, kv := range batch {
		slot := w.findLeafSlot(img, cur, kv.Key)
		if slot >= 0 {
			// In-place 8 B value update: failure-atomic, and the WAL
			// entry (or the batch's meta publish) makes the new value
			// win at recovery either way. Tombstones write value 0 but
			// KEEP the slot valid: the dead key stays physically
			// present as a fence, so the leaf's minimum key — which
			// recovery uses to rebuild routing — can never drift above
			// the leaf's true low key. Fences are compacted away by
			// splits and merges, whose timestamp bump makes dropping
			// them safe against any older WAL entry.
			img.SetKV(slot, img.Key(slot), kv.Value)
			dirty.Mark(pmleaf.SlotWord(slot) + 1)
			continue
		}
		if kv.Value == Tombstone {
			continue // deleting an absent key
		}
		// New key: needs a slot free under the ORIGINAL bitmap.
		freeMask := ^uint32(orig) & ^uint32(assigned) & pmleaf.BitmapMask
		if freeMask == 0 {
			if overrideNext {
				return fmt.Errorf("core: merge batch overflowed leaf (capacity pre-check bug)")
			}
			live, err := w.splitLeaf(n, img, batch)
			s.Live, s.Done = live, true
			return err
		}
		slot = bits.TrailingZeros32(freeMask)
		img.SetKV(slot, kv.Key, kv.Value)
		img.SetFP(slot, tr.keyFingerprint(w.t, kv.Key))
		assigned |= 1 << uint(slot)
		cur |= 1 << uint(slot)
		dirty.Mark(pmleaf.SlotWord(slot))
		dirty.Mark(pmleaf.SlotWord(slot) + 1)
		fps.Mark(pmleaf.FPWord(slot))
	}

	// Step 1+2: data region; a shared wave's fingerprints go with it
	// (Staged.Shared), in the same flush when the data reaches the
	// header's cacheline.
	if s.Shared && fps.Hi > 0 && dirty.Lo < pmem.CachelineSize/pmem.WordSize {
		dirty.Mark(fps.Lo)
	} else if s.Shared {
		s.Flushed = pmleaf.FlushSpan(w.t, img, fps)
	}
	s.Flushed = pmleaf.FlushSpan(w.t, img, dirty) || s.Flushed
	// Step 3's header, published by publishLeaf: fingerprints, bitmap
	// and next.
	next := img.Next()
	if overrideNext {
		next = newNext
	}
	img.SetMeta(pmleaf.PackMeta(cur, next))
	// Report live (non-fence) occupancy for the merge heuristic.
	for i := 0; i < LeafSlots; i++ {
		if cur&(1<<uint(i)) != 0 && img.Val(i) != Tombstone {
			s.Live++
		}
	}
	return nil
}

// publishLeaf is step 3 of a leaf write, once its wave's fence made the
// staged data durable: the timestamp and the 32 B metadata region
// (fingerprints + timestamp + bitmap/next, one cacheline) flushed
// together, an atomic publish through the meta word once fenced.
func (w *Worker) publishLeaf(n *bufferNode, s *Staged) {
	s.Img.SetTS(w.Stamp(n))
	pmleaf.FlushHeader(w.t, &s.Img)
}

// slotRef is one key of a splitting leaf: a live slot of the old leaf
// or a key the in-flight batch adds.
type slotRef struct {
	kv   KV
	slot int // physical slot in the old leaf; -1 for batch-only keys
}

// splitNew is one right sibling a split mints.
type splitNew struct {
	size int // keys packed into the leaf
	addr pmem.Addr
	low  uint64 // smallest key: the routing anchor
	nb   *bufferNode
}

// splitScratch is splitLeaf's working set, worker-owned so a split
// allocates only what outlives it (buffer nodes, inner-tree paths).
type splitScratch struct {
	refs, merged []slotRef
	left, right  []KV
	news         []splitNew
}

// splitLeaf is the §4.2 logless split, generalized to mint as many
// right siblings as the in-flight batch needs. img is the current image
// of n's leaf and batch the in-flight insertions (in order — later
// entries supersede earlier ones). Every new leaf is written and
// persisted in full while still unreachable; one atomic meta write on
// the old leaf then both shrinks its bitmap and links the whole new
// chain, so a crash anywhere in between leaves the old structure
// untouched. A single write never inserts more than a buffer's worth
// at once and so always splits in two, exactly the paper's layout; a
// group can route an arbitrarily long sorted run at one leaf, and
// packing the overflow into full leaves right away is what lets one
// coalesced trigger write absorb the whole run instead of re-splitting
// the same right edge every half-leaf of progress.
func (w *Worker) splitLeaf(n *bufferNode, img *pmleaf.Image, batch []KV) (int, error) {
	tr := w.tree
	// Structural writes override a leafbuf scope but not an active task
	// scope (gc, recovery).
	if s := w.t.Scope(); s == pmem.ScopeNone || s == pmem.ScopeLeafBuf {
		defer w.t.PopScope(w.t.PushScope(pmem.ScopeSplit))
	}

	sc := &w.split
	refs := sc.refs[:0]
	for i := 0; i < LeafSlots; i++ {
		if img.Valid(i) {
			refs = append(refs, slotRef{KV{img.Key(i), img.Val(i)}, i})
		}
	}
	sc.refs = refs
	slices.SortFunc(refs, func(a, b slotRef) int {
		return tr.compare(w.t, a.kv.Key, b.kv.Key)
	})

	// Merge the batch over the live slots: sorted, unique, last write
	// wins. A tombstone for an absent key vanishes here (it would not
	// occupy a slot either); a tombstone for a live key keeps its entry
	// so the fence-compaction rules below see it.
	merged := append(sc.merged[:0], refs...)
	for _, kv := range batch {
		j := sort.Search(len(merged), func(j int) bool {
			return tr.compare(w.t, merged[j].kv.Key, kv.Key) >= 0
		})
		if j < len(merged) && tr.compare(w.t, merged[j].kv.Key, kv.Key) == 0 {
			merged[j].kv.Value = kv.Value
			continue
		}
		if kv.Value == Tombstone {
			continue
		}
		merged = append(merged, slotRef{})
		copy(merged[j+1:], merged[j:])
		merged[j] = slotRef{kv, -1}
	}
	sc.merged = merged
	if len(merged) <= LeafSlots {
		return 0, fmt.Errorf("core: split of leaf with %d merged keys (no overflow)", len(merged))
	}
	// Split at the median of the LIVE keys — the paper's geometry, which
	// also leaves the old leaf just under half full so the post-split
	// merge pass packs settled neighbors together. Only a nearly-empty
	// leaf swamped by a large batch (no live median to cut at) falls
	// back to the median of the merged set.
	splitKey := merged[len(merged)/2].kv.Key
	if len(refs) >= 2 {
		splitKey = refs[len(refs)/2].kv.Key
	}
	mid := sort.Search(len(merged), func(j int) bool {
		return tr.compare(w.t, merged[j].kv.Key, splitKey) >= 0
	})

	// batch is not read again below. When this call is the follow-up
	// insertion of an enclosing split, batch IS sc.left: the filter then
	// runs in place, which is safe because it keeps a subsequence in
	// order and so never writes above the index it reads.
	batchLeft := sc.left[:0]
	for _, kv := range batch {
		if tr.compare(w.t, kv.Key, splitKey) < 0 {
			batchLeft = append(batchLeft, kv)
		}
	}
	sc.left = batchLeft

	// Right contents: merged[mid:] with fences dropped — the split's
	// freshly stamped leaves gate any older WAL entry for them — except
	// the first entry, the first new leaf's routing anchor (recovery
	// rebuilds boundaries from leaf minimums, so lowKey must stay
	// physically present).
	rkvs := sc.right[:0]
	for i, r := range merged[mid:] {
		if r.kv.Value == Tombstone && i != 0 {
			continue
		}
		rkvs = append(rkvs, r.kv)
	}
	sc.right = rkvs

	// Pack into as few leaves as possible. Earlier leaves fill
	// completely (ideal for the sorted-ingest runs that produce
	// multi-leaf splits; a later insert into a full leaf just splits it
	// in two); the last leaf keeps at least two keys so it can.
	numNew := (len(rkvs) + LeafSlots - 1) / LeafSlots
	news := append(sc.news[:0], make([]splitNew, numNew)...)
	sc.news = news
	for k := range news {
		news[k].size = LeafSlots
	}
	news[numNew-1].size = len(rkvs) - (numNew-1)*LeafSlots
	if numNew > 1 && news[numNew-1].size == 1 {
		news[numNew-2].size--
		news[numNew-1].size++
	}
	for k := range news {
		a, err := tr.newLeaf(w.t, w.socket)
		if err != nil {
			return 0, err
		}
		news[k].addr = a
	}
	off := 0
	for k := range news {
		chunk := rkvs[off : off+news[k].size]
		off += news[k].size
		news[k].low = chunk[0].Key
		rimg := pmleaf.Image{Addr: news[k].addr}
		var rbm uint16
		for i, kv := range chunk {
			rimg.SetKV(i, kv.Key, kv.Value)
			rimg.SetFP(i, tr.keyFingerprint(w.t, kv.Key))
			rbm |= 1 << uint(i)
		}
		next := img.Next()
		if k < numNew-1 {
			next = news[k+1].addr
		}
		rimg.SetTS(w.Stamp(n))
		rimg.SetMeta(pmleaf.PackMeta(rbm, next))
		pmleaf.WriteWhole(w.t, &rimg)
	}

	// The left leaf keeps its physical slots below splitKey, compacting
	// fences except the smallest kept key (the leaf minimum, its
	// routing anchor).
	leftBm := uint16(0)
	keptMin := false
	for _, r := range refs {
		if tr.compare(w.t, r.kv.Key, splitKey) >= 0 {
			continue
		}
		if r.kv.Value == Tombstone && keptMin {
			continue
		}
		leftBm |= 1 << uint(r.slot)
		keptMin = true
	}
	// Publish with the old leaf's PREVIOUS timestamp: the follow-up
	// batchLeft insertion — which carries this node's still-buffered
	// KVs — sets a fresh one only once its data is persistent. Bumping
	// the timestamp here would gate those KVs' WAL entries as stale if
	// power failed before the follow-up batch landed (found by the
	// flush-boundary fault sweep). The retained timestamp still gates
	// everything the leaf's last completed flush covered, so dropping
	// fences above stays safe.
	img.SetMeta(pmleaf.PackMeta(leftBm, news[0].addr))
	w.t.Store(pmleaf.MetaAddr(n.leaf), img.Meta())
	w.t.Persist(pmleaf.MetaAddr(n.leaf), pmem.WordSize)

	// DRAM structures: new buffer nodes, chain links, inner routing.
	// The whole new segment is wired internally before the single
	// n.next publish makes it reachable. The new nodes inherit n's
	// floor: their keys' records so far were ticked from n.
	nx := n.next.Load()
	for k := range news {
		news[k].nb = w.slab.newNode(news[k].addr, news[k].low, tr.opts.Nbatch)
		news[k].nb.floor = n.floor
	}
	for k := range news {
		if k > 0 {
			news[k].nb.prev.Store(news[k-1].nb)
		} else {
			news[k].nb.prev.Store(n)
		}
		if k < numNew-1 {
			news[k].nb.next.Store(news[k+1].nb)
		} else {
			news[k].nb.next.Store(nx)
		}
	}
	if nx != nil {
		nx.prev.Store(news[numNew-1].nb)
	}
	n.next.Store(news[0].nb)
	for k := range news {
		tr.inner.put(w.t, news[k].low, news[k].nb)
	}
	tr.ctr.splits.Add(uint64(numNew))
	tr.tracer.Emit(obs.EvSplit, w.id, w.t.Now(), splitKey, uint64(numNew))

	// Cached slots that migrated right are out of n's range now; purge
	// them so reads and scans cannot resurrect stale copies. (All
	// buffered entries are part of this batch, so no unflushed state
	// is lost — the caller resets pos.)
	for i := 0; i < n.nbatch(); i++ {
		if k := n.slotKey(i); k != 0 && tr.compare(w.t, k, splitKey) >= 0 {
			n.setSlot(i, 0, 0, 0)
		}
	}

	if len(batchLeft) > 0 {
		return w.leafBatchInsert(n, batchLeft)
	}
	return bits.OnesCount16(leftBm), nil
}

// tryMerge implements the §4.2 merge: if n's leaf fell below 50%
// occupancy and its left sibling has room, move everything left and
// atomically detach n (new bitmap bits + next pointer publish in the
// left leaf's single meta word).
func (w *Worker) tryMerge(n *bufferNode) {
	tr := w.tree
	for attempt := 0; attempt < 4; attempt++ {
		left := n.prev.Load()
		if left == nil {
			return
		}
		lv, ok := left.tryLock()
		if !ok {
			runtime.Gosched()
			continue
		}
		if left.dead() || left.next.Load() != n {
			left.unlock(lv)
			continue
		}
		nv, ok := n.tryLock()
		if !ok {
			left.unlock(lv)
			runtime.Gosched()
			continue
		}
		if n.dead() {
			n.unlock(nv)
			left.unlock(lv)
			return
		}
		merged := w.mergeLocked(left, n)
		n.unlock(nv)
		left.unlock(lv)
		if merged {
			tr.ctr.merges.Add(1)
			tr.tracer.Emit(obs.EvMerge, w.id, w.t.Now(), n.lowKey, 0)
		}
		return
	}
}

// mergeLocked does the move with both locks held.
func (w *Worker) mergeLocked(left, n *bufferNode) bool {
	tr := w.tree
	if s := w.t.Scope(); s == pmem.ScopeNone || s == pmem.ScopeLeafBuf {
		defer w.t.PopScope(w.t.PushScope(pmem.ScopeSplit))
	}
	var limg, nimg pmleaf.Image
	limg.Read(w.t, left.leaf)
	nimg.Read(w.t, n.leaf)

	lpos, leb, _ := unpackHdr(left.hdr.Load())
	npos, _, _ := unpackHdr(n.hdr.Load())

	// Re-check underutilization under the lock, counting only live
	// (non-fence) entries.
	nLive := 0
	for i := 0; i < LeafSlots; i++ {
		if nimg.Valid(i) && nimg.Val(i) != Tombstone {
			nLive++
		}
	}
	if nLive+npos >= LeafSlots/2 {
		return false
	}

	// The batch: left's own unflushed KVs must flush too, because the
	// merge bumps the left leaf's timestamp past their WAL entries;
	// then n's leaf content (fences dropped — the timestamp bump gates
	// any older WAL entry for them), then n's unflushed KVs (newest
	// last).
	batch := w.scratch[:0] // free here: merges run between trigger writes
	for i := 0; i < lpos; i++ {
		batch = append(batch, KV{left.slotKey(i), left.slotVal(i)})
	}
	for i := 0; i < LeafSlots; i++ {
		if nimg.Valid(i) && nimg.Val(i) != Tombstone {
			batch = append(batch, KV{nimg.Key(i), nimg.Val(i)})
		}
	}
	for i := 0; i < npos; i++ {
		batch = append(batch, KV{n.slotKey(i), n.slotVal(i)})
	}
	w.scratch = batch

	// Conservative capacity check: every batch entry may need a fresh
	// slot ("left sibling has enough space", §4.2).
	if limg.Count()+len(batch) > LeafSlots {
		return false
	}

	// n's records were ticked under n's lock; left's stamp must outrank
	// them.
	left.floor = max(left.floor, n.floor)
	if _, err := w.leafBatchInsertNext(left, batch, nimg.Next(), true); err != nil {
		return false
	}
	left.hdr.Store(packHdr(0, leb, false))

	// Detach n from the DRAM chain and directory, free its leaf.
	n.hdr.Store(packHdr(0, 0, true))
	nx := n.next.Load()
	left.next.Store(nx)
	if nx != nil {
		nx.prev.Store(left)
	}
	tr.inner.remove(w.t, n.lowKey)
	// Epoch-based reclamation instead of an immediate free: a lock-free
	// reader that resolved n before the unlink may still probe n.leaf,
	// so the PM block stays mapped until every pinned reader has exited.
	tr.retireLeaf(n.leaf)
	tr.leafCount.Add(-1)
	return true
}
