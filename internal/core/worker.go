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

	scratch []KV     // reused flush batch (trigger writes, merges)
	wave    []Staged // the worker's persist wave (wave.go)
	split   splitScratch
	slab    nodeSlab // buffer nodes for this worker's splits
	// batchKVs/batchEnts/runs/place are the write protocol's scratch,
	// reused call to call and sized in NewWorker: the word-form group
	// (one KV for a single write), its WAL records (see groupCommit), its
	// locked runs and each op's buffer slot (see placeRun).
	batchKVs  []KV
	batchEnts []wal.Entry
	runs      []groupRun
	place     []int8
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
}

// groupScratch is the group size the write protocol's scratch is sized
// for up front (the serving tier's default lane batch), so neither a
// single write nor a typical group allocates on first use.
const groupScratch = 64

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
		tree:      tr,
		t:         tr.pool.NewThread(socket),
		socket:    socket,
		batchKVs:  make([]KV, 0, groupScratch),
		batchEnts: make([]wal.Entry, 0, groupScratch),
		runs:      make([]groupRun, 0, groupScratch),
		place:     make([]int8, groupScratch),
	}
	w.logs[0] = wal.NewLog(tr.walman, socket)
	w.logs[1] = wal.NewLog(tr.walman, socket)
	w.blobs = blobArena{alloc: tr.alloc, socket: socket}
	if tr.met != nil {
		w.mh = tr.met.m.NewHandle()
		w.spans = true
	}
	tok := tr.workersMu.lock()
	w.id = len(tr.workers)
	tr.workers = append(tr.workers, w)
	ws := tr.workers
	tr.registry.Store(&ws)
	tr.workersMu.unlock(tok)
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
// version snapshotted at beginRead, charging the modeled load.
func (w *Worker) readRecheck(n *bufferNode, ver uint64) bool {
	ok := n.validateRead(ver)
	c := w.t.CostDRAM()
	w.t.Advance(c)
	if w.spans {
		w.segAcc[obs.SegValidate] += c
	}
	return ok
}

// Thread exposes the worker's PM thread (virtual clock, scope).
func (w *Worker) Thread() *pmem.Thread { return w.t }

// MaxValue bounds direct 8 B keys and values: the top two bits tag
// indirection pointers (blobs) and probes, so recovery can tell payload
// from pointer unambiguously. Larger payloads go through a value blob
// (BatchOp.ValueBytes).
const MaxValue = 1<<62 - 1

// Upsert inserts or updates a fixed 8 B key/value pair. key must be in
// [1, MaxValue]; value must be in [1, MaxValue] (0 is the tombstone —
// use Delete).
func (w *Worker) Upsert(key, value uint64) error {
	return w.Write(&BatchOp{Key: key, Value: value}, false)
}

// Delete inserts a tombstone for key (§4.2 treats deletion as an
// insertion so it benefits from buffering and logging identically).
func (w *Worker) Delete(key uint64) error {
	return w.Write(&BatchOp{Key: key, Delete: true}, false)
}

// Write is the one checked single-write entry (under Upsert, Delete,
// UpsertIndirect, the DB frontend's single writes and cclhash): op
// passes validateOp — indirect admits a tagged pointer as a fixed put's
// value word, for UpsertIndirect — and then runs as a one-op ApplyBatch
// does: an OpPut span (a delete is a tombstone upsert on the identical
// critical path), materialize, commit as a group of one in the worker
// scratch ApplyBatch uses, and an insert_ns sample.
func (w *Worker) Write(op *BatchOp, indirect bool) error {
	defer w.t.CheckScope(w.t.Scope())
	if err := w.validateOp(op, indirect); err != nil {
		return err
	}
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
func (w *Worker) stwEnter() lockToken {
	tok := w.tree.stw.rlock()
	w.syncStall()
	return tok
}

func (w *Worker) stwExit(tok lockToken) { w.tree.stw.runlock(tok) }

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

// lockOwner routes key through the directory to the buffer node owning
// it and returns the node with its version lock held (v is the token
// unlock takes); failed attempts go through retry. Every locked path shares it: the write
// protocol and recovery's replay. crashAbort is safe in recovery too:
// once a fault has fired every flush panics, so a replay worker is
// already dead at its next leaf write, and the check only turns a spin
// on a dead peer's lock into that same panic.
func (w *Worker) lockOwner(key uint64) (*bufferNode, uint64) {
	for {
		attemptVT := w.t.Now()
		m := w.segBegin()
		n := w.tree.index.Find(w.t, key)
		if v, locked := n.tryLock(); locked {
			if w.tree.index.Owns(w.t, n, key) {
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
	defer w.t.CheckScope(w.t.Scope())
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
	n := tr.index.Find(w.t, key)
	ver, clean := n.beginRead()
	if !clean {
		return 0, false, false
	}
	if !tr.index.Owns(w.t, n, key) {
		return 0, false, false
	}
	// Buffer probe: the packed per-slot fingerprints short-circuit the
	// key comparisons — one DRAM word covers every slot, so most probes
	// touch no slot at all (§4.1's fingerprint filter, applied to the
	// DRAM cache).
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
		v := n.slotVal(i)
		if !w.readRecheck(n, ver) {
			return 0, false, false
		}
		tr.ctr.bufferHits.Add(1)
		tr.heat.Touch(uint64(n.leaf), false)
		return v, true, true
	}
	// Line search (the tree's: bitmap + fingerprints in the header
	// cacheline filter the PM reads, §4.1).
	v, f := tr.index.Search(w, n, key, target)
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
	n := tr.index.Find(w.t, start)
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
			n = tr.index.Find(w.t, from)
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
	chargeSort(w.t, len(ents))
	return ents, true
}

// chargeSort charges t the model's cost of sorting n entries in DRAM:
// the engine's one definition of it, for a group's ops, a scanned
// node's entries and recovery's log records.
func chargeSort(t *pmem.Thread, n int) { t.Advance(int64(n) * t.CostDRAM() * 2) }
