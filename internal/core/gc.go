package core

import (
	"runtime"

	"cclbtree/internal/obs"
	"cclbtree/internal/pmem"
	"cclbtree/internal/wal"
)

// maybeTriggerGC starts a background reclamation round when the WAL
// footprint, plus extra bytes about to be appended, exceeds THlog ×
// leaf bytes (§3.4), and reports whether it did.
func (tr *Tree) maybeTriggerGC(extra int64) bool {
	if tr.opts.GC == GCOff || tr.gcRunning.Load() || tr.closed.Load() {
		return false
	}
	logBytes := tr.logBytes.Load() + extra
	if logBytes < 2*int64(tr.opts.ChunkBytes) {
		return false // don't thrash tiny logs
	}
	leafBytes := tr.leafCount.Load() * LeafBytes
	if float64(logBytes) <= tr.opts.THlog*float64(leafBytes) {
		return false
	}
	tr.startGC()
	return true
}

// startGC launches one asynchronous GC round if none is running. A
// locality-aware round flips the epoch (its step 1) before startGC
// returns, so no writer sees a round running under the old epoch.
func (tr *Tree) startGC() {
	if tr.closed.Load() || !tr.gcRunning.CompareAndSwap(false, true) {
		return
	}
	var newE uint32
	if tr.opts.GC != GCNaive {
		newE = 1 - tr.epoch.Load()
		tr.epoch.Store(newE)
	}
	done := make(chan struct{})
	tok := tr.prof.Pre(obs.LockGC)
	tr.gcMu.Lock()
	tok = tr.prof.Acquired(obs.LockGC, tok)
	tr.gcDone = done
	tr.gcMu.Unlock()
	tr.prof.Released(obs.LockGC, tok)
	go func() {
		defer close(done)
		defer tr.gcRunning.Store(false)
		// An armed fault (pmem.FailWhen) can fire on the GC thread's
		// flushes: the simulated machine lost power and the round stops
		// where it was. done still closes and gcRunning still clears, so
		// Freeze() keeps working mid-crash and the crash harness
		// proceeds to Pool.Crash + recovery.
		pmem.Survive(func() {
			if tr.opts.GC == GCNaive {
				tr.runNaiveGC()
			} else {
				tr.runLocalityGC(newE)
			}
		})
	}()
}

// StartGCAsync launches one GC round in the background (Fig 14's
// explicit trigger).
func (tr *Tree) StartGCAsync() { tr.startGC() }

// ForceGC runs (or joins) a GC round and waits for it to finish.
func (tr *Tree) ForceGC() {
	if tr.opts.GC == GCOff || tr.closed.Load() {
		return
	}
	tr.startGC()
	tr.WaitGC()
}

// Freeze stops the tree's background activity, modeling the instant a
// power failure halts every thread. An in-flight GC round aborts
// between nodes without reclaiming, leaving a legal mid-GC persistent
// state. Call before Pool.Crash (or before abandoning the Tree); the
// Tree must not be used afterwards.
func (tr *Tree) Freeze() {
	tr.closed.Store(true)
	tr.WaitGC()
	// Every reader epoch ends with its goroutine; retired leaves can be
	// returned to the allocator so post-freeze accounting (and the next
	// Tree on this pool) sees no leak.
	tr.drainEpochs()
}

// WaitGC blocks until the in-flight GC round, if any, completes.
func (tr *Tree) WaitGC() {
	tok := tr.prof.Pre(obs.LockGC)
	tr.gcMu.Lock()
	tok = tr.prof.Acquired(obs.LockGC, tok)
	done := tr.gcDone
	tr.gcMu.Unlock()
	tr.prof.Released(obs.LockGC, tok)
	<-done
}

// gcWorker returns the dedicated background worker (lazily created; it
// registers like any worker so its I-logs are reclaimed in later
// rounds).
func (tr *Tree) gcWorker() *Worker {
	tr.gcOnce.Do(func() { tr.gcW = tr.NewWorker(tr.opts.HomeSocket) })
	return tr.gcW
}

// runLocalityGC is the §3.4 locality-aware collection:
//
//  1. Flip the global epoch to newE (startGC does). Foreground inserts
//     re-read it under their buffer-node lock, so every node is logged
//     consistently: entries appended after the GC visits a node carry
//     the new epoch and live in I-logs.
//  2. Scan the buffer-node chain; for each still-unflushed slot whose
//     epoch bit is old, append a copy to the GC thread's I-log — a
//     sequential write, never a random leaf flush — and restamp the
//     slot with the new epoch (so the next round knows its entry
//     already lives in the new generation's logs).
//  3. Detach and recycle every thread's old-generation log chunks.
//
// Foreground threads never stop: buffering, flushing and logging all
// continue, which is exactly why Fig 14 shows no throughput dip.
func (tr *Tree) runLocalityGC(newE uint32) {
	tr.ctr.gcRuns.Add(1)
	w := tr.gcWorker()
	// The round's PM traffic is gc-caused; I-log appends still land in
	// ScopeWAL (wal.Append overrides) per the attribution contract.
	defer w.t.PopScope(w.t.PushScope(pmem.ScopeGC))
	tr.tracer.Emit(obs.EvGCRound, w.id, w.t.Now(), uint64(tr.ctr.gcRuns.Load()), 0)
	oldE := 1 - newE

	for n := tr.head; n != nil; {
		if tr.closed.Load() {
			// Frozen mid-round (simulated power failure): abort
			// without reclaiming. The resulting persistent state —
			// epoch flipped, a prefix of entries copied to I-logs,
			// every chunk still registered — is exactly a legal
			// mid-GC crash state; recovery's max-timestamp dedup
			// handles the duplicated entries.
			return
		}
		v, ok := n.tryLock()
		if !ok {
			tr.crashAbort()
			runtime.Gosched()
			continue
		}
		if n.dead() {
			nx := n.next.Load()
			n.unlock(v)
			n = nx
			continue
		}
		if !tr.gcCopyNode(w, n, newE) {
			// Out of PM for the I-log: abort the round; the old
			// generation stays live and recovery remains correct.
			n.unlock(v)
			return
		}
		nx := n.next.Load()
		n.unlock(v)
		n = nx
	}

	tr.reclaimLogs(oldE)
	// Piggyback epoch reclamation on the GC cadence: leaves retired by
	// merges since the last round become freeable once every reader
	// pinned at retire time has exited.
	tr.advanceEpoch()
}

// gcCopyNode is step 2 of runLocalityGC for one node, whose lock the
// caller holds: every unflushed slot still stamped with the old epoch
// is copied to the GC worker's new-generation I-log and restamped. A
// writer ticks a slot's record from the same node (Worker.Stamp), so
// every copy outranks the record of the value it copies. It reports
// false when the I-log ran out of PM.
func (tr *Tree) gcCopyNode(w *Worker, n *bufferNode, newE uint32) bool {
	pos, eb, _ := unpackHdr(n.hdr.Load())
	for i := 0; i < pos; i++ {
		if uint32(eb>>uint(i)&1) == newE {
			tr.ctr.gcSkippedFresh.Add(1)
			continue
		}
		if _, err := w.logs[newE].Append(w.t, wal.Entry{
			Key: n.slotKey(i), Value: n.slotVal(i), Timestamp: w.Stamp(n),
		}); err != nil {
			return false
		}
		eb = eb&^(1<<uint(i)) | uint16(newE)<<uint(i)
		tr.logBytes.Add(wal.EntrySize)
		tr.ctr.gcCopied.Add(1)
	}
	n.hdr.Store(packHdr(pos, eb, false))
	return true
}

// runNaiveGC is the strawman (Fig 9a / Fig 14): stop the world, flush
// every buffered KV to its leaf — random PM writes — then reclaim all
// logs.
func (tr *Tree) runNaiveGC() {
	tr.ctr.gcRuns.Add(1)
	w := tr.gcWorker()
	defer w.t.PopScope(w.t.PushScope(pmem.ScopeGC))
	tr.tracer.Emit(obs.EvGCRound, w.id, w.t.Now(), uint64(tr.ctr.gcRuns.Load()), 1)
	tok := tr.prof.Pre(obs.LockSTW)
	tr.stw.Lock()
	tok = tr.prof.Acquired(obs.LockSTW, tok)
	defer tr.prof.Released(obs.LockSTW, tok)
	defer tr.stw.Unlock()
	for n := tr.head; n != nil; n = n.next.Load() {
		if tr.closed.Load() {
			return
		}
		if n.dead() {
			continue
		}
		pos, eb, _ := unpackHdr(n.hdr.Load())
		if pos == 0 {
			continue
		}
		batch := make([]KV, 0, pos)
		for i := 0; i < pos; i++ {
			batch = append(batch, KV{n.slotKey(i), n.slotVal(i)})
		}
		w.wave = w.wave[:0]
		if _, err := w.stage(n, batch, false); err != nil {
			return
		}
		w.publish()
		n.hdr.Store(packHdr(0, eb, false))
	}
	tr.reclaimLogs(0)
	tr.reclaimLogs(1)
	// Blocked foreground threads resume at the GC thread's clock.
	if v := w.t.Now(); v > tr.stallVT.Load() {
		tr.stallVT.Store(v)
	}
	tr.stallGen.Add(1)
}

// reclaimLogs detaches generation e's chunks from every worker and
// returns them to the free list.
func (tr *Tree) reclaimLogs(e uint32) {
	tok := tr.prof.Pre(obs.LockWorkers)
	tr.workersMu.Lock()
	tok = tr.prof.Acquired(obs.LockWorkers, tok)
	ws := append([]*Worker(nil), tr.workers...)
	tr.workersMu.Unlock()
	tr.prof.Released(obs.LockWorkers, tok)
	var chunks []pmem.Addr
	for _, wk := range ws {
		tr.logBytes.Add(-wk.logs[e].Bytes())
		chunks = append(chunks, wk.logs[e].Detach()...)
	}
	tr.walman.ReleaseChunks(chunks)
}

// LogFootprintBytes reports the PM bytes currently held by WAL chunks.
func (tr *Tree) LogFootprintBytes() int64 {
	return tr.walman.InUseChunks() * int64(tr.opts.ChunkBytes)
}

// PeakLogBytes reports the largest live appended log volume observed
// (Table 2's "peak log size"). Updated opportunistically on the append
// path.
func (tr *Tree) PeakLogBytes() int64 { return tr.peakLog.Load() }

func (tr *Tree) notePeakLog() {
	cur := tr.logBytes.Load()
	for {
		old := tr.peakLog.Load()
		if cur <= old || tr.peakLog.CompareAndSwap(old, cur) {
			return
		}
	}
}
