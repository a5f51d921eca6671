package core

import (
	"fmt"
	"slices"

	"cclbtree/internal/obs"
	"cclbtree/internal/pmleaf"
	"cclbtree/internal/wal"
)

// BatchOp is one staged write: an ApplyBatch op, or a single write on
// its way through writeOne. In fixed mode Key/Value carry the 8 B
// words; in VarKV mode KeyBytes (and, for puts, ValueBytes) carry the
// pair and the words are materialized during apply. Delete marks a
// tombstone insertion in either mode.
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
// word (0 is the tombstone, never a storable inline value — this is
// UpsertLargeValue). The blobs are persisted here, before anything is
// logged.
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
// group of one has no fence to share and runs exactly as Upsert/Delete
// do.
//
// Crash atomicity stays per-op, exactly the durable-prefix contract:
// when ApplyBatch returns, every op in the group is durable; if the
// machine dies mid-call, each op independently either survives (its
// record is check-code-complete and newest for its key) or vanishes —
// the group is not transactional. Validation runs before any side
// effect, so a rejected batch leaves the tree untouched.
func (w *Worker) ApplyBatch(ops []BatchOp) error {
	tr := w.tree
	if len(ops) == 0 {
		return nil
	}
	if err := w.ValidateBatch(ops); err != nil {
		return err
	}
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
// foreground write — Upsert, Delete, the Var/Indirect/LargeValue
// variants and ApplyBatch — arrives here as a group of word-form KVs in
// worker scratch. A group of two or more is sorted and group-committed
// up front, one fence for all its records; a group of one has no fence
// to share, so it goes in unlogged and applyRunLocked logs it under the
// node lock, where placement is known and the trigger KV's record can
// be skipped (§3.3).
func (w *Worker) commit(kvs []KV) error {
	tr := w.tree
	if tr.opts.GC == GCNaive {
		defer w.stwExit(w.stwEnter())
	}
	var gen, minTS uint64
	var e uint32
	if len(kvs) > 1 {
		// Sort by key so the ops group into per-node runs. The stable
		// sort keeps a key's ops in submission order: the last write to
		// a key within the group wins, both in DRAM (applied later) and
		// at recovery (stamped with a later ORDO tick below).
		slices.SortStableFunc(kvs, func(a, b KV) int {
			return tr.compare(w.t, a.Key, b.Key)
		})
		w.t.Advance(int64(len(kvs)) * w.t.CostDRAM() * 2) // DRAM sort cost

		// Group commit. The generation counter is read BEFORE the epoch:
		// combined with the flip storing the epoch before bumping the
		// generation, an unchanged epochGen at slot-publish time proves
		// the records below went to a generation no completed-or-running
		// GC round reclaims (see Tree.epochGen).
		gen = tr.epochGen.Load()
		e = tr.epoch.Load()
		var err error
		if minTS, err = w.groupCommit(kvs, e); err != nil {
			return err
		}
	}
	if err := w.applySorted(kvs, gen, e, minTS); err != nil {
		return err
	}
	tr.maybeTriggerGC()
	return nil
}

// ValidateBatch runs ApplyBatch's pre-flight validation without any
// side effect. The sharded DB frontend uses it to reject a malformed
// multi-shard batch atomically: every shard's slice is validated before
// any shard's group commit starts, preserving the single-tree contract
// that a rejected batch leaves the store untouched.
func (w *Worker) ValidateBatch(ops []BatchOp) error {
	for i := range ops {
		if err := w.validateBatchOp(&ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// validateBatchOp rejects malformed ops before ApplyBatch has any side
// effect.
func (w *Worker) validateBatchOp(op *BatchOp) error {
	tr := w.tree
	if !tr.opts.VarKV {
		if op.KeyBytes != nil || op.ValueBytes != nil {
			return fmt.Errorf("core: ApplyBatch: byte-slice op: %w", ErrVarKVRequired)
		}
		return w.validateFixed("ApplyBatch", op.Key, op.Value, !op.Delete)
	}
	if tr.closed.Load() {
		return fmt.Errorf("core: ApplyBatch: %w", ErrClosed)
	}
	if op.KeyBytes == nil && op.Key != 0 {
		return fmt.Errorf("core: ApplyBatch: fixed-word op: %w", ErrFixedKVRequired)
	}
	if len(op.KeyBytes) == 0 {
		return fmt.Errorf("core: ApplyBatch: %w", ErrZeroKey)
	}
	return nil
}

// applySorted walks the key-sorted group, locking each run's buffer
// node once and applying every op of the run under that single lock
// acquisition. minTS is the smallest tick stamped on the group commit's
// records, 0 for an unlogged group of one.
func (w *Worker) applySorted(kvs []KV, gen uint64, e uint32, minTS uint64) error {
	for i := 0; i < len(kvs); {
		n, v := w.lockOwner(kvs[i].Key)
		applied, underfull, err := w.applyRunLocked(n, kvs[i:], gen, e, minTS)
		n.unlock(v)
		if err != nil {
			return err
		}
		if underfull {
			w.tryMerge(n)
		}
		i += applied
	}
	return nil
}

// ownsKey reports, under n's lock, whether key is still below the right
// boundary of n's range. (The left boundary holds by construction: the
// caller checked rangeOK for the run's first, smallest key.)
func (w *Worker) ownsKey(n *bufferNode, key uint64) bool {
	nx := n.next.Load()
	return nx == nil || w.tree.compare(w.t, key, nx.lowKey) < 0
}

// ownedRun returns how many leading ops of kvs n still owns; kvs[0] is
// known to be owned.
func (w *Worker) ownedRun(n *bufferNode, kvs []KV) int {
	end := 1
	for end < len(kvs) && w.ownsKey(n, kvs[end].Key) {
		end++
	}
	return end
}

// applyRunLocked is the §3.2 insert flow for a sorted run: it applies a
// maximal prefix of kvs (kvs[0] routed to n) with n's lock held, and
// reports how many ops it consumed. Ops that fall beyond a split
// boundary created mid-run are left for the caller to re-route.
// underfull reports whether a flush left the leaf a merge candidate.
//
// Every op is durable before it is visible: an op bound for a buffer
// slot has its WAL record first, an op that overflows the buffer rides
// the trigger flush. What differs between groups is only where the
// record comes from.
//
// An unlogged run (minTS == 0, a group of one) is logged here, under
// the lock, where placement is known: an op that hits or takes a slot
// appends its record just before the slot store, and an op that
// overflows appends nothing — it is durable the moment the flush is
// (§3.3's write-conservative rule; NaiveLogging logs it anyway, Nbatch
// 0 logs nothing). Leaf flushes stamp the current tick, which is above
// every record the flush absorbs.
//
// A logged run's records were group-committed (ticks >= minTS) before
// any node lock was taken, trigger KVs included, because placement was
// unknown then. They can back this run's slots only if, since then,
// nothing has happened to the node that recovery would rank above
// them. Three things can, and each forces a relog of the whole owned
// run — fresh ticks, current generation, under the node lock:
//
//   - A GC round flipped the epoch (generation moved): its scan may
//     already have passed this node — before the group's slots were
//     published, so without copying them — and the round reclaims
//     the generation holding the group's records at its end.
//   - The leaf was flushed (leaf timestamp >= minTS) — by another
//     writer, a split, or an earlier run of this group routed here
//     before a split — so the leaf timestamp now gates the records
//     as stale even though these ops are not in the leaf.
//   - A GC round that flipped BEFORE the group commit (generation
//     unchanged) visited the node after it (n.gcTS >= minTS): it
//     copied the slots' OLD values into its I-log with ticks above
//     the group's, so for a key this run updates in the buffer,
//     recovery's newest-tick dedup would resurrect the old value.
//
// The rule: a group record backs a slot only if no leaf stamp and no GC
// copy on the node carries a tick at or above it. The duplicates a
// relog leaves are harmless (recovery dedups by newest timestamp). The
// relog covers the whole owned run, not just its slot-bound prefix:
// the stamp cap below is what keeps the group's records beyond this
// run replayable, and it has to sit under every record this run relies
// on (DESIGN.md, "why logged groups relog whole runs").
//
// Whenever records are written under the lock — unlogged run or relog —
// the epoch is re-read there, so the bits below claim a generation no
// older than where the records actually live (the protocol's benign
// race direction).
func (w *Worker) applyRunLocked(n *bufferNode, kvs []KV, gen uint64, e uint32, minTS uint64) (applied int, underfull bool, err error) {
	tr := w.tree
	tr.heat.Touch(uint64(n.leaf), true)
	sm := w.segBegin()
	defer w.segCloseBuffer(sm, w.segAcc[obs.SegWAL], w.segAcc[obs.SegTrigger])
	logged := minTS != 0
	if !logged {
		e = tr.epoch.Load()
	} else {
		relog := tr.epochGen.Load() != gen || n.gcTS >= minTS
		if !relog {
			leafTS := w.t.Load(pmleaf.TSAddr(n.leaf))
			relog = leafTS >= minTS
		}
		if relog {
			e = tr.epoch.Load()
			if minTS, err = w.relogRun(kvs[:w.ownedRun(n, kvs)], e); err != nil {
				return 0, false, err
			}
		}
		// Leaf flushes this run stamp at most minTS-1 (stampLeafTS): the
		// entry check above guarantees the leaf's timestamp starts below
		// minTS, and capping every stamp keeps it there, so the group's
		// records — all ticked >= minTS — stay ahead of the leaf however
		// many flushes or splits the run triggers. Ops absorbed INTO those
		// flushes sit above the stamp too; recovery just replays them
		// through the normal insert path, which newest-tick dedup makes
		// idempotent. Without the cap every post-flush op would need its
		// record re-logged with a fresh tick — a second fence and a second
		// record for most ops of a split-heavy group.
		w.tsCap = minTS - 1
		defer func() { w.tsCap = 0 }()
	}
	pos, eb, _ := unpackHdr(n.hdr.Load())
	epoch := uint16(e)
	valid := -1 // live count reported by the last flush; -1 = no flush

	for applied < len(kvs) {
		kv := kvs[applied]
		if applied > 0 && !w.ownsKey(n, kv.Key) {
			break // a split this run moved the key to the right sibling
		}

		// An unflushed slot already holding this key, else the next free
		// slot: either way the op lands in the buffer, WAL first (§3.2).
		slot := -1
		for i := 0; i < pos; i++ {
			if sk := n.slotKey(i); sk != 0 && tr.compare(w.t, sk, kv.Key) == 0 {
				slot = i
				break
			}
		}
		if slot >= 0 || pos < n.nbatch() {
			if !logged {
				if _, err = w.groupCommit(kvs[applied:applied+1], e); err != nil {
					break
				}
			}
			if slot >= 0 {
				n.slots[2*slot+1].Store(kv.Value)
			} else {
				slot = pos
				pos++
				n.setSlot(slot, kv.Key, kv.Value, tr.keyFingerprint(w.t, kv.Key))
				// Purge stale cached copies from earlier flush rounds:
				// slots beyond pos may hold an older version (even a
				// tombstone) of this key at a HIGHER index, which a later
				// round's overwrites could leave shadowing the leaf's
				// newer value.
				for i := pos; i < n.nbatch(); i++ {
					if sk := n.slotKey(i); sk != 0 && tr.compare(w.t, sk, kv.Key) == 0 {
						n.setSlot(i, 0, 0, 0)
					}
				}
			}
			eb = eb&^(1<<uint(slot)) | epoch<<uint(slot)
			applied++
			continue
		}

		// Trigger write (§3.3): the buffered KVs plus every remaining
		// consecutive in-range op of the run flush to the leaf in one
		// XPLine write. This is where batching pays: N ops landing on
		// this leaf share one leaf write instead of N, and an
		// overflowing run packs into fresh leaves in one generalized
		// split (splitLeaf) rather than re-splitting the same right
		// edge every half leaf.
		run := kvs[applied : applied+w.ownedRun(n, kvs[applied:])]
		tr.ctr.triggerWrites.Add(1)
		if !logged && n.nbatch() > 0 {
			if !tr.opts.NaiveLogging {
				tr.ctr.skippedLogs.Add(uint64(len(run)))
			} else if _, err = w.groupCommit(run, e); err != nil {
				break
			}
		}
		batch := w.scratch[:0]
		for i := 0; i < pos; i++ {
			batch = append(batch, KV{n.slotKey(i), n.slotVal(i)})
		}
		batch = append(batch, run...)
		w.scratch = batch
		tm := w.segBegin()
		valid, err = w.leafBatchInsert(n, batch)
		w.segEnd(obs.SegTrigger, tm)
		if err != nil {
			break
		}
		// Slots stay populated as a read cache; refresh stale copies of
		// the keys just flushed so reads cannot see older values.
		for i := 0; i < n.nbatch(); i++ {
			sk := n.slotKey(i)
			if sk == 0 {
				continue
			}
			for _, f := range run {
				if tr.compare(w.t, sk, f.Key) == 0 {
					n.slots[2*i+1].Store(f.Value)
				}
			}
		}
		pos = 0
		applied += len(run)
	}

	// Published on the error paths too (PM exhausted mid-run): the ops
	// applied before the failure sit in slots the header must count.
	n.hdr.Store(packHdr(pos, eb, false))
	underfull = err == nil && valid >= 0 && valid < LeafSlots/2 && n != tr.head
	return applied, underfull, err
}

// groupCommit is the foreground WAL append: one freshly ticked record
// per kv (kvs non-empty) to generation e's log under a single fence,
// returning the smallest tick it stamped. The records are built in
// worker-owned scratch, which no caller reads after the append. The
// peak log size is sampled whenever the record count crosses a multiple
// of 512 — often enough for Table 2, rare enough to stay off the
// single-write path.
func (w *Worker) groupCommit(kvs []KV, e uint32) (uint64, error) {
	tr := w.tree
	entries := w.batchEnts[:0]
	for _, kv := range kvs {
		entries = append(entries, wal.Entry{Key: kv.Key, Value: kv.Value, Timestamp: tr.clock.Now(w.socket)})
	}
	w.batchEnts = entries
	m := w.segBegin()
	err := w.logs[e].AppendBatch(w.t, entries)
	w.segEnd(obs.SegWAL, m)
	if err != nil {
		return 0, err
	}
	tr.logBytes.Add(int64(len(entries)) * wal.EntrySize)
	if n := uint64(len(entries)); tr.ctr.loggedWrites.Add(n)%512 < n {
		tr.notePeakLog()
	}
	return entries[0].Timestamp, nil
}

// relogRun group-commits fresh copies of a logged run's records into
// generation e's log, returning the smallest tick it stamped. Called
// under the run's node lock when the pre-assigned records cannot back
// the run's slots (see applyRunLocked).
func (w *Worker) relogRun(kvs []KV, e uint32) (uint64, error) {
	minTS, err := w.groupCommit(kvs, e)
	if err == nil {
		w.tree.ctr.batchRelogs.Add(uint64(len(kvs)))
	}
	return minTS, err
}
