package core

import "cclbtree/internal/obs"

// latKind names one of the per-operation latency histograms.
type latKind int

const (
	latInsert latKind = iota // "insert_ns": single writes, deletes, group commits
	latLookup                // "lookup_ns": point reads
	latScan                  // "scan_ns"
	numLat
)

// treeMetrics is the optional obs wiring for one tree: a registry plus
// the pre-registered latency histograms workers record into, and the
// (op × segment) span matrix the critical-path attribution fills. nil
// when Options.Metrics is off — recordLat and the span sites check,
// keeping the disabled hot path free of obs work.
type treeMetrics struct {
	m   *obs.Metrics
	lat [numLat]obs.HistID
	// span[op][seg] holds the "span_<op>_<seg>_ns" histogram: how much
	// of one op's latency that segment absorbed, recorded only when
	// nonzero (see Worker.finishSpan).
	span [obs.NumOpClasses][obs.NumSegments]obs.HistID
}

// Heatmap sizing: 4096 slots ≈ 96 KB of counters — enough to rank a
// working set thousands of leaves wide — rotating every 32768 touches
// so scores decay with traffic, not wall time.
const (
	heatSlots  = 4096
	heatWindow = 32768
)

func newTreeMetrics() *treeMetrics {
	m := obs.NewMetrics()
	tm := &treeMetrics{
		m:   m,
		lat: [numLat]obs.HistID{m.Histogram("insert_ns"), m.Histogram("lookup_ns"), m.Histogram("scan_ns")},
	}
	for op := obs.OpClass(0); op < obs.NumOpClasses; op++ {
		for seg := obs.Segment(0); seg < obs.NumSegments; seg++ {
			tm.span[op][seg] = m.Histogram(obs.SpanHistName(op, seg))
		}
	}
	return tm
}

// initObs applies the observability options; shared by New and Open.
// The contention profiler and leaf heatmap ride the Metrics switch:
// they are part of the same "pay for telemetry" decision, and every
// touch point is nil-safe when it is off.
func (tr *Tree) initObs() {
	if tr.opts.Metrics {
		tr.met = newTreeMetrics()
		tr.prof = obs.NewLockProfiler()
		tr.heat = obs.NewHeatmap(heatSlots, heatWindow)
	}
	tr.tracer = tr.opts.Tracer
}

// TreeMetrics is the tree's observability snapshot: behavioral counters
// always, latency histograms when Options.Metrics is on.
type TreeMetrics struct {
	Counters Counters
	// Latency holds the "insert_ns"/"lookup_ns"/"scan_ns" histograms
	// (virtual nanoseconds, deletes count as inserts); nil when metrics
	// are disabled.
	Latency *obs.Snapshot
}

// Metrics returns the observability snapshot (the tree-level
// counterpart of pmem.Pool.Observe).
func (tr *Tree) Metrics() TreeMetrics {
	tm := TreeMetrics{Counters: tr.Counters()}
	if tr.met != nil {
		tm.Latency = tr.met.m.Snapshot()
	}
	return tm
}

// hotLeafK bounds the hot-leaf summary Profile exports.
const hotLeafK = 16

// Profile returns the contention/span/heat tier: lock wait/hold stats
// per class, per-(op, segment) latency attribution, and the hottest
// leaves. Zero-valued when Options.Metrics is off. Cumulative since
// tree creation (heat scores decay by rotation; everything else is
// monotone).
func (tr *Tree) Profile() obs.Profile {
	p := obs.Profile{
		Locks:       tr.prof.Snapshot(),
		HotLeaves:   tr.heat.TopK(hotLeafK),
		HeatEpoch:   tr.heat.Epoch(),
		HeatDropped: tr.heat.Dropped(),
	}
	if tr.met != nil {
		p.Segments = obs.SegmentsFromSnapshot(tr.met.m.Snapshot())
	}
	return p
}

// recordLat records one operation latency sample; no-op when metrics
// are off (mh nil). Clamped at zero: Rewind can, in degenerate retry
// interleavings, leave the clock marginally behind the recorded start.
func (w *Worker) recordLat(k latKind, start int64) {
	if w.mh == nil {
		return
	}
	if d := w.t.Now() - start; d > 0 {
		w.mh.Observe(w.tree.met.lat[k], uint64(d))
	}
}
