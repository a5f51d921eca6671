package core

import (
	"runtime"
	"sync/atomic"

	"cclbtree/internal/obs"
	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
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
	slab    nodeSlab // buffer nodes for this worker's splits
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
	return w.writeOne(&BatchOp{Key: key, Value: value})
}

// Delete inserts a tombstone for key (§4.2 treats deletion as an
// insertion so it benefits from buffering and logging identically).
func (w *Worker) Delete(key uint64) error {
	if err := w.validateFixed("Delete", key, Tombstone, false); err != nil {
		return err
	}
	return w.writeOne(&BatchOp{Key: key, Delete: true})
}

// writeOne is the single-write entry shim under Upsert, Delete and the
// Var/Indirect/LargeValue variants: one validated op is opened as an
// OpPut span (a delete is a tombstone upsert and walks the identical
// critical path), materialized and accounted exactly as an ApplyBatch op
// is, handed to the write protocol (commit) as a group of one staged in
// the worker scratch ApplyBatch uses, and sampled into insert_ns.
func (w *Worker) writeOne(op *BatchOp) error {
	start := w.t.Now()
	w.beginSpan(obs.OpPut)
	kv, err := w.materialize(op)
	if err != nil {
		return err
	}
	w.batchKVs = append(w.batchKVs[:0], kv)
	err = w.commit(w.batchKVs)
	w.finishSpan()
	w.recordLat(latInsert, start)
	ev := obs.EvInsert
	if op.Delete {
		ev = obs.EvDelete
	}
	w.tree.tracer.Emit(ev, w.id, w.t.Now(), kv.Key, kv.Value)
	return err
}

// stwEnter is the stop-the-world prologue every foreground operation
// runs under GCNaive (and only there): it takes the read side of the
// naive collector's lock and lifts the worker's clock over the pause it
// may have sat out. Callers defer stwExit with the returned token.
func (w *Worker) stwEnter() obs.LockToken {
	tr := w.tree
	tok := tr.prof.Pre(obs.LockSTW)
	tr.stw.RLock()
	tok = tr.prof.Acquired(obs.LockSTW, tok)
	w.syncStall()
	return tok
}

func (w *Worker) stwExit(tok obs.LockToken) {
	w.tree.stw.RUnlock()
	w.tree.prof.Released(obs.LockSTW, tok)
}

// retry is the one retry rule of the optimistic protocols, read side
// and write side: a failed attempt — the node's version lock is held or
// moved underneath, or the node stopped owning the key between routing
// and the section — is rewound off the virtual clock and charged
// conflictPenaltyNS of lock wait instead, then yields. It re-raises a
// sticky power failure first: the version an attempt spins on never
// settles once its holder died mid-section (Tree.crashAbort).
func (w *Worker) retry(attemptVT int64, read bool) {
	tr := w.tree
	tr.crashAbort()
	tr.ctr.retries.Add(1)
	if read {
		tr.ctr.readRetries.Add(1)
	}
	w.t.Rewind(attemptVT)
	w.t.Advance(conflictPenaltyNS)
	if w.spans {
		w.segAcc[obs.SegLockWait] += conflictPenaltyNS
	}
	runtime.Gosched()
}

// lockOwner routes key to the buffer node owning it and returns the
// node with its version lock held (v is the token unlock takes); failed
// attempts go through retry. Every locked path shares it: the write
// protocol and recovery's replay. crashAbort is safe in recovery too:
// once a fault has fired every flush panics, so a replay worker is
// already dead at its next leaf write, and the check only turns a spin
// on a dead peer's lock into that same panic.
func (w *Worker) lockOwner(key uint64) (*bufferNode, uint64) {
	for {
		attemptVT := w.t.Now()
		m := w.segBegin()
		n := w.tree.findBuffer(w.t, key)
		if v, locked := n.tryLock(); locked {
			if w.rangeOK(n, key) {
				w.segEnd(obs.SegTraverse, m)
				return n, v
			}
			n.unlock(v)
		}
		w.retry(attemptVT, false)
	}
}

// Lookup finds the value for a fixed 8 B key.
func (w *Worker) Lookup(key uint64) (uint64, bool) {
	v, n := w.read(obs.EvLookup, false, key, nil)
	return v, n == 1
}

// Scan collects up to max live entries with key ≥ start in ascending
// order into out, returning the count (§4.3: traverse successive buffer
// and leaf nodes, buffered entries win).
func (w *Worker) Scan(start uint64, max int, out []KV) int {
	if max > len(out) {
		max = len(out)
	}
	if max < 0 {
		max = 0
	}
	_, n := w.read(obs.EvScan, false, start, out[:max])
	return n
}

// read is the read entry shim under Lookup, LookupVar, LookupLargeValue,
// Scan and ScanVar, and the protocol around their node sections
// (DESIGN.md "Read protocol"): pin the reclamation epoch, then route,
// snapshot, probe or collect, recheck — failed attempts go through
// retry — and unpin. A read takes no lock and writes nothing. op names
// the kind: EvLookup is a point read of key, returning its live value
// word and n = 1, else n = 0; EvScan fills out from key upward and
// returns the count. varKV is the key kind the entry point speaks; when
// the tree stores the other kind, key is not comparable to anything in
// it and the read finds nothing, before anything is routed or charged.
func (w *Worker) read(op obs.EventKind, varKV bool, key uint64, out []KV) (val uint64, n int) {
	tr := w.tree
	if varKV != tr.opts.VarKV {
		return 0, 0
	}
	start := w.t.Now()
	w.beginSpan(obs.OpGet)
	if tr.opts.GC == GCNaive {
		defer w.stwExit(w.stwEnter())
	}
	w.readEnter()
	defer w.readExit()
	lat, arg := latScan, uint64(len(out)) // traced: a scan's bound, a point read's hit
	if op == obs.EvScan {
		tr.ctr.scans.Add(1)
		n = w.scanWords(key, out)
	} else {
		lat = latLookup
		tr.ctr.lookups.Add(1)
		if v, ok := w.lookupWord(key); ok && v != Tombstone {
			val, n, arg = v, 1, 1
		}
	}
	w.finishSpan()
	w.recordLat(lat, start)
	tr.tracer.Emit(op, w.id, w.t.Now(), key, arg)
	return val, n
}

// lookupWord runs optimistic point-read attempts until one validates.
func (w *Worker) lookupWord(key uint64) (uint64, bool) {
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
		w.retry(attemptVT, true)
	}
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

// scanWords walks the node chain from start's owner, appending each
// node's validated snapshot to out until it is full or the chain ends.
func (w *Worker) scanWords(start uint64, out []KV) int {
	tr := w.tree
	count := 0
	var lastKey uint64
	haveLast := false
	n := tr.findBuffer(w.t, start)
	for n != nil && count < len(out) {
		attemptVT := w.t.Now()
		ents, nx, st := w.scanNode(n)
		switch st {
		case scanDead:
			// Merged away: re-route from the last progress point. A
			// simulated crash can leave routing transiently stale, so
			// the re-route loop needs retry's unhang check too.
			tr.crashAbort()
			from := start
			if haveLast {
				from = lastKey
			}
			n = tr.findBuffer(w.t, from)
			continue
		case scanRetry:
			w.retry(attemptVT, true)
			continue
		}
		for _, e := range ents {
			if count >= len(out) {
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

// scanNode is Scan's optimistic node section: it snapshots one node's
// sorted live entries and its successor under seqlock validation.
func (w *Worker) scanNode(n *bufferNode) ([]KV, *bufferNode, int) {
	ver, ok := n.beginRead()
	if !ok {
		return nil, nil, scanRetry
	}
	if n.dead() {
		return nil, nil, scanDead
	}
	ents, ok := w.collectNode(n, ver)
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
// version changed mid-read.
func (w *Worker) collectNode(n *bufferNode, ver uint64) ([]KV, bool) {
	tr := w.tree
	tr.heat.Touch(uint64(n.leaf), false)
	var img pmleaf.Image
	img.Read(w.t, n.leaf)

	cands := w.scanCands[:0]
	for i := 0; i < n.nbatch(); i++ {
		if k := n.slotKey(i); k != 0 {
			w.unsafeReadTear()
			cands = append(cands, scanCand{KV{k, n.slotVal(i)}, true})
		}
	}
	for i := 0; i < LeafSlots; i++ {
		if img.Valid(i) {
			cands = append(cands, scanCand{KV{img.Key(i), img.Val(i)}, false})
		}
	}
	w.scanCands = cands
	if !w.readRecheck(n, ver) {
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
