package core

import (
	"bytes"
	"slices"

	"cclbtree/internal/obs"
	"cclbtree/internal/wal"
)

// BatchOp is one staged write: an ApplyBatch op, or the single write
// Write runs. Every write of the module takes this one shape from the
// API down to commit, checked by validateOp. In fixed mode Key carries
// the 8 B key and Value the value word, or ValueBytes a value blob (the
// word left 0); in VarKV mode KeyBytes (and, for puts, ValueBytes)
// carry the pair and the words are materialized during apply. Delete
// marks a tombstone insertion in either mode.
type BatchOp struct {
	Key        uint64
	Value      uint64
	KeyBytes   []byte
	ValueBytes []byte
	Delete     bool
}

// materialize turns one validated op into word form and accounts it
// (op counter, user bytes): a VarKV key is written out as a blob, and so
// is the value of a VarKV put or of a fixed put that carries no value
// word (0 is the tombstone, never a storable inline value: validateOp
// admits it only beside ValueBytes). The blobs are persisted here,
// before anything is logged.
func (w *Worker) materialize(op *BatchOp) (kv KV, err error) {
	tr := w.tree
	kv = KV{op.Key, op.Value}
	keyBytes, valBytes := 8, 8
	if tr.opts.VarKV {
		if kv.Key, err = w.blobs.write(w.t, op.KeyBytes); err != nil {
			return kv, err
		}
		keyBytes = len(op.KeyBytes)
	}
	if op.Delete {
		kv.Value = Tombstone
		tr.ctr.deletes.Add(1)
	} else {
		if tr.opts.VarKV || op.Value == 0 {
			if kv.Value, err = w.blobs.write(w.t, op.ValueBytes); err != nil {
				return kv, err
			}
			valBytes = len(op.ValueBytes)
		}
		tr.ctr.upserts.Add(1)
	}
	tr.pool.AddUserBytes(uint64(keyBytes + valBytes))
	return kv, nil
}

// ApplyBatch applies a group of writes through the write protocol
// (commit): one WAL group commit for the whole group — §3.3's per-op
// append + fence collapsed to one fence — and per-leaf coalescing, so N
// ops triggering a flush on one leaf cost one leaf write, not N. A
// group of one has no fence to share and runs exactly as Write does.
//
// Crash atomicity stays per-op, exactly the durable-prefix contract:
// when ApplyBatch returns, every op in the group is durable; if the
// machine dies mid-call, each op independently either survives (its
// record is check-code-complete and newest for its key) or vanishes —
// the group is not transactional. Every op passes the validator a
// single write passes (validateOp) before any side effect, so a
// rejected batch leaves the tree untouched.
func (w *Worker) ApplyBatch(ops []BatchOp) error {
	tr := w.tree
	if len(ops) == 0 {
		return nil
	}
	if err := w.ValidateBatch(ops); err != nil {
		return err
	}
	defer w.t.CheckScope(w.t.Scope())
	start := w.t.Now()
	w.beginSpan(obs.OpBatch)

	kvs := append(w.batchKVs[:0], make([]KV, len(ops))...)
	w.batchKVs = kvs
	for i := range ops {
		var err error
		if kvs[i], err = w.materialize(&ops[i]); err != nil {
			return err
		}
	}

	if err := w.commit(kvs); err != nil {
		return err
	}

	tr.ctr.batchApplies.Add(1)
	tr.ctr.batchedOps.Add(uint64(len(ops)))
	w.finishSpan()
	w.recordLat(latInsert, start)
	tr.tracer.Emit(obs.EvBatchApply, w.id, w.t.Now(), uint64(len(ops)), uint64(len(ops)-1))
	return nil
}

// commit is the write protocol (DESIGN.md "Write protocol"): every
// foreground write — Write (under Upsert, Delete and UpsertIndirect) and
// ApplyBatch — arrives here as a group of word-form KVs in
// worker scratch, a single write as a group of one. Every run of the
// sorted group has its node locked before anything is logged; with all
// locks held the epoch is read, each run is placed, the ops that end in
// a buffer slot are logged in one group commit (one fence), and the runs
// are applied. An op that overflows its buffer rides the trigger write
// and gets no record (§3.3; NaiveLogging logs it anyway). Records, leaf
// stamps and GC copies are thus all ticked from their node under its
// lock (Worker.Stamp), in the lock's order.
func (w *Worker) commit(kvs []KV) error {
	tr := w.tree
	if tr.opts.GC == GCNaive {
		defer w.stwExit(w.stwEnter())
	}
	if len(kvs) > 1 {
		// Sort in the directory's order (key order, for the tree) so the
		// ops group into per-node runs. The stable sort keeps a key's ops
		// in submission order: the last write to a key within the group
		// wins, both in DRAM (applied later) and at recovery (logged with
		// a later tick of its node).
		slices.SortStableFunc(kvs, func(a, b KV) int {
			return tr.index.Compare(w.t, a.Key, b.Key)
		})
		chargeSort(w.t, len(kvs))
	}
	runs := w.lockRuns(kvs)
	sm, wal0, trig0 := w.segBegin(), w.segAcc[obs.SegWAL], w.segAcc[obs.SegTrigger]
	e := tr.epoch.Load()
	// A full log chunk starts a round due within half a chunk; the
	// records go to the new generation (DESIGN.md, GC bullet).
	if tr.opts.GC == GCLocalityAware && w.logs[e].TailFull() && tr.maybeTriggerGC(int64(tr.opts.ChunkBytes)/2) {
		e = tr.epoch.Load()
	}
	ents, triggers := w.batchEnts[:0], 0
	for i := range runs {
		if ents = w.placeRun(&runs[i], kvs, ents); !runs[i].fits {
			triggers++
		}
	}
	w.batchEnts = ents
	var err error
	if len(ents) > 0 {
		err = w.groupCommit(ents, e)
	}
	w.wave = w.wave[:0]
	for i := range runs {
		if err == nil {
			err = w.applyRun(&runs[i], kvs, e, triggers > 1)
		}
	}
	if len(w.wave) > 0 {
		// Publish what was staged even when a later run failed: those
		// trigger writes are whole.
		tm := w.segBegin()
		w.publish()
		w.segEnd(obs.SegTrigger, tm)
		for i := range runs {
			if runs[i].staged >= 0 {
				w.finishTrigger(&runs[i], kvs)
			}
		}
	}
	w.segCloseBuffer(sm, wal0, trig0)
	for i := range runs {
		runs[i].n.unlock(runs[i].v)
	}
	if err != nil {
		return err
	}
	for i := range runs {
		if runs[i].underfull {
			w.tryMerge(runs[i].n)
		}
	}
	tr.maybeTriggerGC(0)
	return nil
}

// ValidateBatch runs ApplyBatch's pre-flight validation (validateOp on
// every op) without any side effect. The sharded DB frontend uses it to
// reject a malformed multi-shard batch atomically: every shard's slice
// is validated before any shard's group commit starts, preserving the
// single-tree contract that a rejected batch leaves the store untouched.
func (w *Worker) ValidateBatch(ops []BatchOp) error {
	for i := range ops {
		if err := w.validateOp(&ops[i], false); err != nil {
			return err
		}
	}
	return nil
}

// groupRun is one run of a locked group: the ops kvs[start:end], all
// owned by node n, held under lock token v.
type groupRun struct {
	n          *bufferNode
	v          uint64
	start, end int
	fits       bool // every op ends in a buffer slot (w.place); else one trigger write
	staged     int  // the trigger write's index in the group's wave; -1 until staged
	underfull  bool // the trigger write left the leaf a merge candidate
}

// lockRuns locks the owner of each run of the sorted group, in the
// directory's order, and returns the runs in worker scratch. Writers
// share this one lock order and GC rounds and merges only try-lock, so
// holding several node locks cannot deadlock; and a held node's range
// cannot change, so the run boundaries found here hold until unlock.
func (w *Worker) lockRuns(kvs []KV) []groupRun {
	runs := w.runs[:0]
	for i := 0; i < len(kvs); {
		n, v := w.lockOwner(kvs[i].Key)
		w.tree.heat.Touch(uint64(n.leaf), true)
		end := i + w.tree.index.RunEnd(w.t, n, kvs[i:])
		runs = append(runs, groupRun{n: n, v: v, start: i, end: end, staged: -1})
		i = end
	}
	w.runs = runs
	return runs
}

// placeRun decides, before anything is written, where each op of the
// locked run r ends. If the whole run fits n's buffer (placeSlots),
// every op takes a slot and gets a record, ticked from n, appended to
// ents. Otherwise no slot is written: the buffered KVs and the whole run
// go to the leaf in one trigger write, durable when the flush is, so
// they get no record (NaiveLogging records them anyway; Nbatch 0 logs
// nothing).
func (w *Worker) placeRun(r *groupRun, kvs []KV, ents []wal.Entry) []wal.Entry {
	tr := w.tree
	n := r.n
	r.fits = w.placeSlots(r, kvs, nil)
	if r.fits || (tr.opts.NaiveLogging && n.nbatch() > 0) {
		for _, kv := range kvs[r.start:r.end] {
			ents = append(ents, wal.Entry{Key: kv.Key, Value: kv.Value, Timestamp: w.Stamp(n)})
		}
	}
	return ents
}

// placeSlots is the first half of the slot machine the write protocol
// (placeRun) and recovery's replay (refill) share: it reports whether
// the whole locked run r fits its node's buffer, and if so records in
// w.place the slot each op takes, an unflushed slot already holding its
// key, else the next free one. keys, when set, holds the bytes of each
// var-KV key of kvs (replay's DRAM copies), so the run's equal keys are
// found without reading a blob.
func (w *Worker) placeSlots(r *groupRun, kvs []KV, keys [][]byte) bool {
	tr := w.tree
	n := r.n
	pos, _, _ := unpackHdr(n.hdr.Load())
	if cap(w.place) < len(kvs) {
		w.place = make([]int8, len(kvs))
	}
	place := w.place[:len(kvs)]
	free := pos
	fits := true
	for i := r.start; i < r.end && fits; i++ {
		slot := -1
		if i > r.start && w.sameKey(kvs, keys, i-1, i) {
			slot = int(place[i-1]) // the sort put the key's earlier op just before
		}
		for j := 0; slot < 0 && j < pos; j++ {
			if sk := n.slotKey(j); sk != 0 && tr.compare(w.t, sk, kvs[i].Key) == 0 {
				slot = j
			}
		}
		if slot < 0 && free < n.nbatch() {
			slot = free
			free++
		}
		place[i] = int8(slot)
		fits = slot >= 0
	}
	return fits
}

// fillSlots is the slot machine's second half: the ops of the placed
// run r take their slots, stamped with epoch e. keys is placeSlots'.
func (w *Worker) fillSlots(r *groupRun, kvs []KV, keys [][]byte, e uint32) {
	tr := w.tree
	n := r.n
	pos, eb, _ := unpackHdr(n.hdr.Load())
	for i := r.start; i < r.end; i++ {
		kv, slot := kvs[i], int(w.place[i])
		if slot < pos {
			n.slots[2*slot+1].Store(kv.Value)
		} else {
			pos++
			n.setSlot(slot, kv.Key, kv.Value, w.fingerprint(kvs, keys, i))
			// Purge stale cached copies from earlier flush rounds:
			// slots beyond pos may hold an older version (even a
			// tombstone) of this key at a HIGHER index, which a later
			// round's overwrites could leave shadowing the leaf's
			// newer value.
			for j := pos; j < n.nbatch(); j++ {
				if sk := n.slotKey(j); sk != 0 && tr.compare(w.t, sk, kv.Key) == 0 {
					n.setSlot(j, 0, 0, 0)
				}
			}
		}
		eb = eb&^(1<<uint(slot)) | uint16(e)<<uint(slot)
	}
	n.hdr.Store(packHdr(pos, eb, false))
}

// sameKey reports whether ops i and j of kvs share a key; keys is
// placeSlots'.
func (w *Worker) sameKey(kvs []KV, keys [][]byte, i, j int) bool {
	if keys != nil {
		return bytes.Equal(keys[i], keys[j])
	}
	return w.tree.compare(w.t, kvs[i].Key, kvs[j].Key) == 0
}

// fingerprint is the fingerprint of op i's key; keys is placeSlots'.
func (w *Worker) fingerprint(kvs []KV, keys [][]byte, i int) byte {
	if keys != nil {
		return fpHash(hashKeyBytes(keys[i]))
	}
	return w.tree.keyFingerprint(w.t, kvs[i].Key)
}

// applyRun is the §3.2 insert flow for the placed run r, with its node
// locked and its records (if any) durable: the ops take their slots,
// stamped with epoch e (fillSlots); or the buffered KVs plus the whole
// run are staged in the group's wave as one trigger write (§3.3),
// shared when the group has other trigger writes.
func (w *Worker) applyRun(r *groupRun, kvs []KV, e uint32, shared bool) error {
	if r.fits {
		w.fillSlots(r, kvs, nil, e)
		return nil
	}
	tr := w.tree
	n := r.n
	pos, _, _ := unpackHdr(n.hdr.Load())
	run := kvs[r.start:r.end]

	// Trigger write (§3.3): the buffered KVs plus the whole run flush to
	// the leaf in one XPLine write. This is where batching pays: N ops
	// landing on this leaf share one leaf write instead of N, and an
	// overflowing run packs into fresh leaves in one generalized split
	// (splitLeaf) rather than re-splitting the same right edge every
	// half leaf.
	tr.ctr.triggerWrites.Add(1)
	if n.nbatch() > 0 && !tr.opts.NaiveLogging {
		tr.ctr.skippedLogs.Add(uint64(len(run)))
	}
	batch := w.scratch[:0]
	for i := 0; i < pos; i++ {
		batch = append(batch, KV{n.slotKey(i), n.slotVal(i)})
	}
	batch = append(batch, run...)
	w.scratch = batch
	tm := w.segBegin()
	i, err := w.stage(n, batch, shared)
	w.segEnd(obs.SegTrigger, tm)
	if err == nil {
		r.staged = i
	}
	return err
}

// finishTrigger ends the trigger write of run r once its wave is
// published: the buffer empties, its slots staying populated as a read
// cache.
func (w *Worker) finishTrigger(r *groupRun, kvs []KV) {
	tr := w.tree
	n := r.n
	_, eb, _ := unpackHdr(n.hdr.Load())
	// Refresh stale copies of the keys just flushed so reads cannot see
	// older values.
	for i := 0; i < n.nbatch(); i++ {
		sk := n.slotKey(i)
		if sk == 0 {
			continue
		}
		for _, f := range kvs[r.start:r.end] {
			if tr.compare(w.t, sk, f.Key) == 0 {
				n.slots[2*i+1].Store(f.Value)
			}
		}
	}
	n.hdr.Store(packHdr(0, eb, false))
	r.underfull = w.wave[r.staged].Live < LeafSlots/2 && n != tr.head
}

// groupCommit is the foreground WAL append: it appends the ticked
// records ents (non-empty) to generation e's log under a single fence.
// The records are worker-owned scratch, which no caller reads after the
// append. The peak log size is sampled whenever the record count
// crosses a multiple of 512 — often enough for Table 2, rare enough to
// stay off the single-write path.
func (w *Worker) groupCommit(ents []wal.Entry, e uint32) error {
	tr := w.tree
	m := w.segBegin()
	err := w.logs[e].AppendBatch(w.t, ents)
	w.segEnd(obs.SegWAL, m)
	if err != nil {
		return err
	}
	tr.logBytes.Add(int64(len(ents)) * wal.EntrySize)
	if n := uint64(len(ents)); tr.ctr.loggedWrites.Add(n)%512 < n {
		tr.notePeakLog()
	}
	return nil
}
