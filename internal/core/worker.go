package core

import (
	"runtime"
	"sync/atomic"

	"cclbtree/internal/obs"
	"cclbtree/internal/pmem"
	"cclbtree/internal/wal"
)

// KV is one key/value pair in word form. In VarKV mode both words are
// indirection pointers.
type KV struct {
	Key, Value uint64
}

// Tombstone is the reserved value word marking a deletion (§4.2: "the
// tombstone KV (i.e., value is set to zero)"). Fixed-mode callers must
// not store it as a real value; blob pointers are never zero.
const Tombstone uint64 = 0

// conflictPenaltyNS is the modeled cost of one failed optimistic
// attempt (version-lock conflict or range mismatch): the cacheline
// bounce plus the retried traversal's overlap with the holder.
const conflictPenaltyNS = 150

// Worker is a per-goroutine handle to the tree. It owns the thread's
// two WALs (the B-log/I-log pair of §3.4), its PM access thread, and
// its blob arena. A Worker must not be used concurrently.
type Worker struct {
	tree   *Tree
	t      *pmem.Thread
	socket int
	id     int
	logs   [2]*wal.Log
	blobs  blobArena
	// mh is the worker's metrics shard (nil when Options.Metrics is
	// off). Single-owner like the Thread: one goroutine at a time.
	mh *obs.Handle

	scratch []KV // reused flush batch (trigger writes, merges)
	split   splitScratch
	// batchKVs/batchEnts are the write protocol's word-form group (one
	// KV for a single write) and its WAL records (see groupCommit),
	// reused call to call.
	batchKVs  []KV
	batchEnts []wal.Entry
	probeKey  []byte // current VarKV lookup/scan probe (see probeTag)
	seenGen   uint64 // last naive-GC stall generation absorbed

	// epochSlot is the worker's reclamation pin (see epoch.go): the
	// epoch a lock-free Get/Scan entered at, 0 between reads. Written
	// by the owning goroutine, scanned by reclaimers.
	epochSlot atomic.Uint64

	// scanCands/scanEnts are collectNode's reusable buffers (≤
	// LeafSlots+Nbatch entries each); worker-owned so the scan path
	// stays allocation-free in steady state.
	scanCands []scanCand
	scanEnts  []KV

	// Span-attribution state (see span.go); worker-local, valid between
	// one beginSpan and its finishSpan. spans mirrors mh != nil so the
	// hot paths branch on one bool.
	spans  bool
	curOp  obs.OpClass
	segAcc [obs.NumSegments]int64
	segV0  int64 // virtual clock at beginSpan
	segF0  int64 // Thread.FlushNS at beginSpan
	segE0  int64 // Thread.FenceNS at beginSpan

	// tsCap, when nonzero, caps the timestamp leaf flushes stamp (see
	// stampLeafTS). applyRunLocked sets it to one tick below a logged
	// group's smallest record timestamp for the duration of each run,
	// so a flush mid-group never gates the group's still-buffered
	// records as stale at recovery. Zero (unlogged runs, GC, recovery,
	// merges) means stamp the current tick.
	tsCap uint64
}

// syncStall lifts the worker's clock over the latest stop-the-world
// pause, once per GC round (clocks across workers are only loosely
// comparable; gating by generation keeps stale stalls from leaking).
func (w *Worker) syncStall() {
	if gen := w.tree.stallGen.Load(); gen != w.seenGen {
		w.seenGen = gen
		before := w.t.Now()
		w.t.SyncClock(w.tree.stallVT.Load())
		// The absorbed stop-the-world pause is lock-wait time: the op
		// spent it blocked behind the naive-GC writer lock.
		if w.spans {
			w.segAcc[obs.SegLockWait] += w.t.Now() - before
		}
	}
}

// NewWorker creates and registers an operation handle bound to a NUMA
// socket (its WALs are allocated from local PM, §4.4 Optimization #1).
func (tr *Tree) NewWorker(socket int) *Worker {
	w := &Worker{
		tree:   tr,
		t:      tr.pool.NewThread(socket),
		socket: socket,
	}
	w.logs[0] = wal.NewLog(tr.walman, socket)
	w.logs[1] = wal.NewLog(tr.walman, socket)
	if tr.opts.UnsafeSkipWALFence {
		w.logs[0].UnsafeSkipFence = true
		w.logs[1].UnsafeSkipFence = true
	}
	w.blobs = blobArena{alloc: tr.alloc, socket: socket}
	if tr.met != nil {
		w.mh = tr.met.m.NewHandle()
		w.spans = true
	}
	tok := tr.prof.Pre(obs.LockWorkers)
	tr.workersMu.Lock()
	tok = tr.prof.Acquired(obs.LockWorkers, tok)
	w.id = len(tr.workers)
	tr.workers = append(tr.workers, w)
	tr.workersMu.Unlock()
	tr.prof.Released(obs.LockWorkers, tok)
	tr.workerCount.Add(1)
	return w
}

// readEnter pins the worker into the current reclamation epoch (see
// epoch.go) and charges the modeled cost of the pin/unpin pair: two
// uncontended DRAM stores.
func (w *Worker) readEnter() {
	w.tree.epochEnter(w)
	c := 2 * w.t.CostDRAM()
	w.t.Advance(c)
	if w.spans {
		w.segAcc[obs.SegValidate] += c
	}
}

// readExit unpins the worker.
func (w *Worker) readExit() {
	w.tree.epochExit(w)
}

// readRecheck re-validates an optimistic read section against the
// version snapshotted at beginRead, charging the modeled load. Under
// Options.UnsafeSkipReadRecheck (oracle self-tests only) the check
// still executes but its verdict is discarded — the planted
// read-linearizability bug the torture oracle must catch.
func (w *Worker) readRecheck(n *bufferNode, ver uint64) bool {
	ok := n.validateRead(ver)
	c := w.t.CostDRAM()
	w.t.Advance(c)
	if w.spans {
		w.segAcc[obs.SegValidate] += c
	}
	if w.tree.opts.UnsafeSkipReadRecheck {
		return true
	}
	return ok
}

// unsafeReadTear widens the torn-read window when the planted
// UnsafeSkipReadRecheck bug is armed: a seqlock reader can be preempted
// between any two of its unsynchronized loads, and the recheck being
// skipped is precisely what would have caught the resulting tear.
// Yielding at the vulnerable point makes the torture oracle's self-test
// catch deterministic instead of scheduler luck (required on single-CPU
// runners, where natural preemption inside a two-instruction window is
// vanishingly rare). Compiled down to one flag check in normal runs.
func (w *Worker) unsafeReadTear() {
	if w.tree.opts.UnsafeSkipReadRecheck {
		runtime.Gosched()
	}
}

// lockHandoffNS models one cross-core cacheline transfer of a shared
// lock word. The LockedReads ablation charges it per peer worker and
// per RMW: on silicon every other active thread is a potential owner
// the line bounces from, which is exactly the scaling collapse the
// lock-free path exists to avoid — and which the deterministic virtual
// clock would otherwise never see.
const lockHandoffNS = 60

// chargeLockHandoff charges rmws lock-word RMWs against the peer count
// and attributes them to lock wait.
func (w *Worker) chargeLockHandoff(rmws int) {
	sharers := w.tree.workerCount.Load() - 1
	if sharers <= 0 {
		return
	}
	d := int64(rmws) * lockHandoffNS * sharers
	w.t.Advance(d)
	if w.spans {
		w.segAcc[obs.SegLockWait] += d
	}
}

// Thread exposes the worker's PM thread (virtual clock, tagging).
func (w *Worker) Thread() *pmem.Thread { return w.t }

// findBuffer routes a key word to its owning buffer node.
func (tr *Tree) findBuffer(t *pmem.Thread, key uint64) *bufferNode {
	if n := tr.inner.findLE(t, key); n != nil {
		return n
	}
	return tr.head
}

// rangeOK checks, under the node's lock or an optimistic read, that n
// still owns key.
func (w *Worker) rangeOK(n *bufferNode, key uint64) bool {
	if n.dead() {
		return false
	}
	if n.lowKey != 0 && w.tree.compare(w.t, key, n.lowKey) < 0 {
		return false
	}
	if nx := n.next.Load(); nx != nil && w.tree.compare(w.t, key, nx.lowKey) >= 0 {
		return false
	}
	return true
}

// MaxValue bounds direct 8 B keys and values: the top two bits tag
// indirection pointers (blobs) and probes, so recovery can tell payload
// from pointer unambiguously. Larger payloads go through
// UpsertLargeValue.
const MaxValue = 1<<62 - 1

// Upsert inserts or updates a fixed 8 B key/value pair. key must be in
// [1, MaxValue]; value must be in [1, MaxValue] (0 is the tombstone —
// use Delete).
func (w *Worker) Upsert(key, value uint64) error {
	if err := w.validateFixed("Upsert", key, value, true); err != nil {
		return err
	}
	w.tree.ctr.upserts.Add(1)
	w.tree.pool.AddUserBytes(16)
	start := w.t.Now()
	w.beginSpan(obs.OpPut)
	err := w.writeOne(key, value)
	w.finishSpan()
	if w.mh != nil {
		w.recordLat(w.tree.met.insertLat, start)
	}
	w.tree.tracer.Emit(obs.EvInsert, w.id, w.t.Now(), key, value)
	return err
}

// Delete inserts a tombstone for key (§4.2 treats deletion as an
// insertion so it benefits from buffering and logging identically).
func (w *Worker) Delete(key uint64) error {
	if err := w.validateFixed("Delete", key, Tombstone, false); err != nil {
		return err
	}
	w.tree.ctr.deletes.Add(1)
	w.tree.pool.AddUserBytes(16)
	start := w.t.Now()
	// Deletes attribute as OpPut: a delete is a tombstone upsert and
	// walks the identical critical path.
	w.beginSpan(obs.OpPut)
	err := w.writeOne(key, Tombstone)
	w.finishSpan()
	if w.mh != nil {
		w.recordLat(w.tree.met.insertLat, start)
	}
	w.tree.tracer.Emit(obs.EvDelete, w.id, w.t.Now(), key, 0)
	return err
}

// writeOne hands one word-form write to the write protocol (commit) as
// a group of one, staged in the same worker scratch ApplyBatch uses.
func (w *Worker) writeOne(key, value uint64) error {
	w.batchKVs = append(w.batchKVs[:0], KV{key, value})
	return w.commit(w.batchKVs)
}

// lockOwner routes key to the buffer node owning it and returns the
// node with its version lock held (v is the token unlock takes). A
// failed attempt — lock held elsewhere, or the node stopped owning key
// between routing and locking — is rewound off the virtual clock and
// charged conflictPenaltyNS of lock wait instead. Every locked path
// shares it: the write protocol, the LockedReads ablation and
// recovery's replay. crashAbort is safe in recovery too: once a fault
// has fired every flush panics, so a replay worker is already dead at
// its next leaf write, and the check only turns a spin on a dead
// peer's lock into that same panic.
func (w *Worker) lockOwner(key uint64) (*bufferNode, uint64) {
	tr := w.tree
	for {
		attemptVT := w.t.Now()
		m := w.segBegin()
		n := tr.findBuffer(w.t, key)
		v, locked := n.tryLock()
		if locked && w.rangeOK(n, key) {
			w.segEnd(obs.SegTraverse, m)
			return n, v
		}
		if locked {
			n.unlock(v)
		} else {
			tr.crashAbort()
		}
		tr.ctr.retries.Add(1)
		w.t.Rewind(attemptVT)
		w.t.Advance(conflictPenaltyNS)
		w.segRetry()
		if !locked {
			runtime.Gosched()
		}
	}
}

// Lookup finds the value for a fixed 8 B key.
func (w *Worker) Lookup(key uint64) (uint64, bool) {
	w.tree.ctr.lookups.Add(1)
	start := w.t.Now()
	w.beginSpan(obs.OpGet)
	v, ok := w.lookupWord(key)
	w.finishSpan()
	if w.mh != nil {
		w.recordLat(w.tree.met.lookupLat, start)
	}
	found := ok && v != Tombstone
	var fw uint64
	if found {
		fw = 1
	}
	w.tree.tracer.Emit(obs.EvLookup, w.id, w.t.Now(), key, fw)
	if !found {
		return 0, false
	}
	return v, true
}

func (w *Worker) lookupWord(key uint64) (uint64, bool) {
	tr := w.tree
	if tr.opts.GC == GCNaive {
		tok := tr.prof.Pre(obs.LockSTW)
		tr.stw.RLock()
		tok = tr.prof.Acquired(obs.LockSTW, tok)
		defer tr.prof.Released(obs.LockSTW, tok)
		defer tr.stw.RUnlock()
		w.syncStall()
	}
	if tr.opts.LockedReads {
		return w.lookupWordLocked(key)
	}
	w.readEnter()
	defer w.readExit()
	for {
		attemptVT := w.t.Now()
		m := w.segBegin()
		val0 := w.segAcc[obs.SegValidate]
		if val, found, ok := w.lookupAttempt(key); ok {
			// The whole successful pass — routing, buffer scan, leaf
			// search — is traversal for a read, minus the validation
			// charges attributed to their own segment inside it.
			w.segEndExcl(obs.SegTraverse, m, w.segAcc[obs.SegValidate]-val0)
			return val, found
		}
		tr.crashAbort()
		tr.ctr.retries.Add(1)
		tr.ctr.readRetries.Add(1)
		w.t.Rewind(attemptVT)
		w.t.Advance(conflictPenaltyNS)
		w.segRetry()
		runtime.Gosched()
	}
}

// lookupWordLocked is the Options.LockedReads ablation: the pre-
// optimistic read path that holds the node's version lock across the
// buffer probe and leaf search. Correct but unscalable — each read
// pays the modeled lock-word handoffs (two RMWs here plus two for the
// shared routing lock this path stands in for), growing with the
// worker count.
func (w *Worker) lookupWordLocked(key uint64) (uint64, bool) {
	n, v := w.lockOwner(key)
	m := w.segBegin()
	w.chargeLockHandoff(4)
	val, found := w.lookupInNode(n, key)
	n.unlock(v)
	w.segEnd(obs.SegTraverse, m)
	return val, found
}

// lookupAttempt is one optimistic lookup pass; ok is false when the
// version changed underneath and the caller must retry.
func (w *Worker) lookupAttempt(key uint64) (val uint64, found, ok bool) {
	tr := w.tree
	n := tr.findBuffer(w.t, key)
	ver, clean := n.beginRead()
	if !clean {
		return 0, false, false
	}
	if !w.rangeOK(n, key) {
		return 0, false, false
	}
	// Buffer probe: the packed per-slot fingerprints short-circuit the
	// key comparisons — one DRAM word covers eight slots, so most
	// probes touch no slot at all (§4.1's fingerprint filter, applied
	// to the DRAM cache).
	target := tr.keyFingerprint(w.t, key)
	w.t.Advance(int64(1+(n.nbatch()+7)/8) * w.t.CostDRAM())
	for i := 0; i < n.nbatch(); i++ {
		if n.slotFP(i) != target {
			continue
		}
		sk := n.slotKey(i)
		if sk == 0 || tr.compare(w.t, sk, key) != 0 {
			continue
		}
		// Leftmost match is the newest version (§4.3). The key and
		// value words are read without synchronization — only the
		// recheck below makes the pair trustworthy.
		w.unsafeReadTear()
		v := n.slotVal(i)
		if !w.readRecheck(n, ver) {
			return 0, false, false
		}
		tr.ctr.bufferHits.Add(1)
		tr.heat.Touch(uint64(n.leaf), false)
		return v, true, true
	}
	// Leaf search: bitmap + fingerprints in the header cacheline
	// filter the PM reads (§4.1).
	v, f := w.leafSearchFP(n.leaf, key, target)
	if !w.readRecheck(n, ver) {
		return 0, false, false
	}
	tr.heat.Touch(uint64(n.leaf), false)
	return v, f, true
}

// lookupInNode probes the buffer slots then the leaf with the node
// lock held (LockedReads ablation and other locked contexts); no
// validation needed.
func (w *Worker) lookupInNode(n *bufferNode, key uint64) (uint64, bool) {
	tr := w.tree
	target := tr.keyFingerprint(w.t, key)
	w.t.Advance(int64(1+(n.nbatch()+7)/8) * w.t.CostDRAM())
	for i := 0; i < n.nbatch(); i++ {
		if n.slotFP(i) != target {
			continue
		}
		sk := n.slotKey(i)
		if sk == 0 || tr.compare(w.t, sk, key) != 0 {
			continue
		}
		tr.ctr.bufferHits.Add(1)
		tr.heat.Touch(uint64(n.leaf), false)
		return n.slotVal(i), true
	}
	v, f := w.leafSearchFP(n.leaf, key, target)
	tr.heat.Touch(uint64(n.leaf), false)
	return v, f
}

// ScanEntry is one range-query result in word form.
type ScanEntry = KV

// Scan collects up to max live entries with key ≥ start in ascending
// order into out, returning the count (§4.3: traverse successive buffer
// and leaf nodes, buffered entries win).
func (w *Worker) Scan(start uint64, max int, out []KV) int {
	tr := w.tree
	tr.ctr.scans.Add(1)
	startVT := w.t.Now()
	defer func() {
		if w.mh != nil {
			w.recordLat(tr.met.scanLat, startVT)
		}
		tr.tracer.Emit(obs.EvScan, w.id, w.t.Now(), start, uint64(max))
	}()
	if tr.opts.GC == GCNaive {
		tok := tr.prof.Pre(obs.LockSTW)
		tr.stw.RLock()
		tok = tr.prof.Acquired(obs.LockSTW, tok)
		defer tr.prof.Released(obs.LockSTW, tok)
		defer tr.stw.RUnlock()
		w.syncStall()
	}
	if max > len(out) {
		max = len(out)
	}
	if !tr.opts.LockedReads {
		w.readEnter()
		defer w.readExit()
	}
	count := 0
	var lastKey uint64
	haveLast := false
	n := tr.findBuffer(w.t, start)
	for n != nil && count < max {
		attemptVT := w.t.Now()
		ents, nx, st := w.scanNode(n)
		switch st {
		case scanDead:
			// Merged away: re-route from the last progress point. A
			// simulated crash can leave routing transiently stale, so
			// the re-route loop needs the same unhang check as the
			// retry loops below.
			tr.crashAbort()
			from := start
			if haveLast {
				from = lastKey
			}
			n = tr.findBuffer(w.t, from)
			continue
		case scanRetry:
			// Every retry branch — locked, torn collect, or failed
			// final validation — must re-raise a sticky power failure:
			// an optimistic reader spinning on a version that will
			// never settle (its writer died mid-section) would
			// otherwise hang here forever.
			tr.crashAbort()
			tr.ctr.retries.Add(1)
			tr.ctr.readRetries.Add(1)
			w.t.Rewind(attemptVT)
			w.t.Advance(conflictPenaltyNS)
			runtime.Gosched()
			continue
		}
		for _, e := range ents {
			if count >= max {
				break
			}
			if tr.compare(w.t, e.Key, start) < 0 {
				continue
			}
			if haveLast && tr.compare(w.t, e.Key, lastKey) <= 0 {
				continue
			}
			out[count] = e
			count++
			lastKey = e.Key
			haveLast = true
		}
		n = nx
	}
	return count
}

// scanNode outcome codes.
const (
	scanOK = iota
	scanDead
	scanRetry
)

// scanNode snapshots one node for Scan: lock-free with seqlock
// validation by default, under the node lock in the LockedReads
// ablation. Returns the node's sorted live entries and the next node.
func (w *Worker) scanNode(n *bufferNode) ([]KV, *bufferNode, int) {
	tr := w.tree
	if tr.opts.LockedReads {
		v, ok := n.tryLock()
		if !ok {
			return nil, nil, scanRetry
		}
		if n.dead() {
			n.unlock(v)
			return nil, nil, scanDead
		}
		w.chargeLockHandoff(4)
		ents, _ := w.collectNode(n, 0, true)
		nx := n.next.Load()
		n.unlock(v)
		return ents, nx, scanOK
	}
	ver, ok := n.beginRead()
	if !ok {
		return nil, nil, scanRetry
	}
	if n.dead() {
		return nil, nil, scanDead
	}
	ents, ok := w.collectNode(n, ver, false)
	if !ok {
		return nil, nil, scanRetry
	}
	nx := n.next.Load()
	if !w.readRecheck(n, ver) {
		return nil, nil, scanRetry
	}
	return ents, nx, scanOK
}

// scanCand is one candidate entry while collecting a node.
type scanCand struct {
	kv      KV
	fromBuf bool
}

// collectNode snapshots one node's live entries (leaf ∪ buffer, buffer
// wins, tombstones drop), sorted ascending into the worker's reusable
// buffer — valid until the next collectNode call. ok is false if the
// version changed mid-read (never when locked: the caller holds the
// node's version lock).
func (w *Worker) collectNode(n *bufferNode, ver uint64, locked bool) ([]KV, bool) {
	tr := w.tree
	tr.heat.Touch(uint64(n.leaf), false)
	var img leafImage
	prev := w.t.SetTag(pmem.TagLeaf)
	readLeaf(w.t, n.leaf, &img)
	w.t.SetTag(prev)

	cands := w.scanCands[:0]
	for i := 0; i < n.nbatch(); i++ {
		if k := n.slotKey(i); k != 0 {
			w.unsafeReadTear()
			cands = append(cands, scanCand{KV{k, n.slotVal(i)}, true})
		}
	}
	for i := 0; i < LeafSlots; i++ {
		if img.slotValid(i) {
			cands = append(cands, scanCand{KV{img.key(i), img.val(i)}, false})
		}
	}
	w.scanCands = cands
	if !locked && !w.readRecheck(n, ver) {
		return nil, false
	}
	// Dedup: leftmost buffer entry wins, then leaf. Sorted insertion on
	// append — the node holds at most LeafSlots+Nbatch entries, and the
	// in-place shift replaces sort.Slice's closure allocation on the
	// zero-alloc read path.
	ents := w.scanEnts[:0]
	for i, c := range cands {
		dup := false
		for j := 0; j < i; j++ {
			if tr.compare(w.t, cands[j].kv.Key, c.kv.Key) == 0 {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if c.kv.Value == Tombstone {
			continue
		}
		// Buffer slots can cache keys that have since split to a
		// right sibling; range-filter them defensively.
		if c.fromBuf {
			if nx := n.next.Load(); nx != nil && tr.compare(w.t, c.kv.Key, nx.lowKey) >= 0 {
				continue
			}
		}
		j := len(ents)
		ents = append(ents, c.kv)
		for j > 0 && tr.compare(w.t, ents[j-1].Key, c.kv.Key) > 0 {
			ents[j] = ents[j-1]
			j--
		}
		ents[j] = c.kv
	}
	w.scanEnts = ents
	w.t.Advance(int64(len(ents)) * w.t.CostDRAM() * 2) // DRAM sort cost
	return ents, true
}
