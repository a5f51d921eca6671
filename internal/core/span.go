package core

import "cclbtree/internal/obs"

// Critical-path span attribution (the second obs tier): each public
// op's virtual-time latency is partitioned into obs.Segment slices so
// a tail-latency number decomposes the way media bytes already do.
//
// Mechanics: beginSpan zeroes the worker's per-op accumulator; marked
// intervals (WAL append, trigger write, locked buffer section,
// successful traversal) add their virtual-time deltas to a segment,
// each minus the flush/fence time inside it — pmem.Thread accumulates
// those separately (FlushNS/FenceNS) and finishSpan carves them out as
// their own segments. Failed optimistic attempts contribute only the
// modeled conflict penalty, to lock wait (Rewind discards the rest, as
// it does for op latency). finishSpan computes the residual (sort
// cost, DRAM bookkeeping, merges) as SegOther and records every
// nonzero segment, so quantiles are per-occurrence and a given op's
// recorded segments sum to its recorded latency.
//
// All of it is worker-local state — no atomics, no allocation — and
// compiled out to one bool check when Options.Metrics is off.

// segMark snapshots the three clocks a segment interval is measured
// against: the virtual clock and the thread's cumulative flush/fence
// time.
type segMark struct {
	vt, flush, fence int64
}

// segBegin opens a marked interval.
func (w *Worker) segBegin() segMark {
	if !w.spans {
		return segMark{}
	}
	return segMark{w.t.Now(), w.t.FlushNS(), w.t.FenceNS()}
}

// segEnd closes a marked interval into seg, net of the flush/fence
// time that elapsed inside it.
func (w *Worker) segEnd(seg obs.Segment, m segMark) {
	if !w.spans {
		return
	}
	d := w.t.Now() - m.vt - (w.t.FlushNS() - m.flush) - (w.t.FenceNS() - m.fence)
	if d > 0 {
		w.segAcc[seg] += d
	}
}

// segEndExcl closes a marked interval into seg like segEnd, but also
// excludes excl — virtual time already attributed to another segment
// inside the interval (the lock-free lookup path records its epoch
// pin/recheck costs as SegValidate while the traversal mark is open).
func (w *Worker) segEndExcl(seg obs.Segment, m segMark, excl int64) {
	if !w.spans {
		return
	}
	d := w.t.Now() - m.vt - (w.t.FlushNS() - m.flush) - (w.t.FenceNS() - m.fence) - excl
	if d > 0 {
		w.segAcc[seg] += d
	}
}

// segCloseBuffer closes a locked buffer-node section into SegBuffer:
// the section's interval minus flush/fence and minus the WAL/trigger
// segments recorded within it (wal0/trig0 are those accumulators at
// section entry). Deferred with value arguments so the write path
// stays allocation-free.
func (w *Worker) segCloseBuffer(m segMark, wal0, trig0 int64) {
	if !w.spans {
		return
	}
	d := w.t.Now() - m.vt - (w.t.FlushNS() - m.flush) - (w.t.FenceNS() - m.fence)
	d -= (w.segAcc[obs.SegWAL] - wal0) + (w.segAcc[obs.SegTrigger] - trig0)
	if d > 0 {
		w.segAcc[obs.SegBuffer] += d
	}
}

// beginSpan opens span attribution for one op. It re-zeroes the
// accumulator unconditionally, so residue from an error-path op that
// never reached finishSpan cannot leak into this op.
func (w *Worker) beginSpan(op obs.OpClass) {
	if !w.spans {
		return
	}
	w.curOp = op
	w.segAcc = [obs.NumSegments]int64{}
	w.segV0 = w.t.Now()
	w.segF0 = w.t.FlushNS()
	w.segE0 = w.t.FenceNS()
}

// finishSpan closes the op: flush/fence segments from the thread's
// cumulative counters, SegOther as the unattributed residual (clamped
// at zero — Rewind can leave total marginally below the attributed
// sum), then one histogram sample per nonzero segment. With the tracer
// enabled it also emits one EvSegment duration event per segment, laid
// end to end from the op's start (the segments partition the op, so
// the concatenation is the op's timeline up to interval reordering).
func (w *Worker) finishSpan() {
	if !w.spans {
		return
	}
	total := w.t.Now() - w.segV0
	if fl := w.t.FlushNS() - w.segF0; fl > 0 {
		w.segAcc[obs.SegFlush] = fl
	}
	if fe := w.t.FenceNS() - w.segE0; fe > 0 {
		w.segAcc[obs.SegFence] = fe
	}
	var sum int64
	for s := obs.Segment(0); s < obs.SegOther; s++ {
		sum += w.segAcc[s]
	}
	if rest := total - sum; rest > 0 {
		w.segAcc[obs.SegOther] = rest
	}
	met := w.tree.met
	emit := w.tree.tracer.Enabled()
	cursor := w.segV0
	for s := obs.Segment(0); s < obs.NumSegments; s++ {
		d := w.segAcc[s]
		if d <= 0 {
			continue
		}
		w.mh.Observe(met.span[w.curOp][s], uint64(d))
		if emit {
			w.tree.tracer.Emit(obs.EvSegment, w.id, cursor, obs.PackSpan(w.curOp, s), uint64(d))
		}
		cursor += d
	}
}
