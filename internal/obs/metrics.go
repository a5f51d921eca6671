package obs

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// HistID names a registered histogram: a dense index into per-handle
// cell arrays, so recording is an array index plus atomic adds.
type HistID int

// Histogram bucketing: values 0..7 map to their own bucket; larger
// values map to a log2 octave refined by the top 3 mantissa bits, so
// each bucket spans at most 1/8 of its octave (≤ ~6% relative width,
// good enough for p50/p99 reporting without per-sample storage).
const (
	histSubBits = 3
	numBuckets  = (64 - histSubBits + 1) * (1 << histSubBits) // 496
)

func bucketOf(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	e := bits.Len64(v) - 1 // 2^e <= v, e >= histSubBits
	m := (v >> (uint(e) - histSubBits)) & (1<<histSubBits - 1)
	return (e-histSubBits+1)<<histSubBits + int(m)
}

// bucketValue returns a representative (lower-bound) value for bucket i.
func bucketValue(i int) uint64 {
	if i < 1<<histSubBits {
		return uint64(i)
	}
	e := i>>histSubBits + histSubBits - 1
	m := uint64(i & (1<<histSubBits - 1))
	return (1<<histSubBits + m) << (uint(e) - histSubBits)
}

// histShard is one handle's private histogram state.
type histShard struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [numBuckets]atomic.Uint64
}

func (h *histShard) observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Metrics is a registry of named latency histograms. Register every
// Histogram before creating Handles: handles are sized at creation and
// do not grow. Behavioral counts live elsewhere (core.Counters).
type Metrics struct {
	mu        sync.Mutex
	histNames []string
	handles   []*Handle
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Histogram registers (or finds) a latency histogram by name. Samples
// are unitless uint64s; by convention this codebase records virtual
// nanoseconds.
func (m *Metrics) Histogram(name string) HistID {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, n := range m.histNames {
		if n == name {
			return HistID(i)
		}
	}
	if len(m.handles) > 0 {
		panic(fmt.Sprintf("obs: Histogram(%q) after NewHandle; register first", name))
	}
	m.histNames = append(m.histNames, name)
	return HistID(len(m.histNames) - 1)
}

// Handle is a per-thread recording shard. Like pmem.Thread it is
// single-owner: one goroutine at a time. All methods are
// allocation-free and nil-safe — a nil *Handle records nothing, so call
// sites need no "metrics enabled?" branch of their own.
type Handle struct {
	hists []histShard
}

// NewHandle creates a recording shard registered with m.
func (m *Metrics) NewHandle() *Handle {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := &Handle{hists: make([]histShard, len(m.histNames))}
	m.handles = append(m.handles, h)
	return h
}

// Observe records one histogram sample.
func (h *Handle) Observe(id HistID, v uint64) {
	if h == nil {
		return
	}
	h.hists[id].observe(v)
}

// HistSnapshot is an aggregated histogram.
type HistSnapshot struct {
	Name    string `json:"name"`
	Count   uint64 `json:"count"`
	Sum     uint64 `json:"sum"`
	Max     uint64 `json:"max"`
	buckets [numBuckets]uint64
}

// snapshot reads the shard into a freestanding HistSnapshot. The
// per-cell loads are atomic but the snapshot as a whole is not a
// consistent cut (same contract as Metrics.Snapshot).
func (h *histShard) snapshot(name string) *HistSnapshot {
	hs := &HistSnapshot{
		Name:  name,
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for b := range hs.buckets {
		hs.buckets[b] = h.buckets[b].Load()
	}
	return hs
}

// Merge folds o into h (bucket-wise sum; quantiles of the merge are
// exact because both sides share the fixed bucket layout). The Name
// of h is kept.
func (h *HistSnapshot) Merge(o *HistSnapshot) {
	if o == nil {
		return
	}
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for b := range h.buckets {
		h.buckets[b] += o.buckets[b]
	}
}

// Mean returns the average sample (0 when empty).
func (h *HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns the q-quantile (0 < q <= 1) as the lower bound of
// the bucket containing it, 0 when empty.
func (h *HistSnapshot) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.Count))
	if rank >= h.Count {
		rank = h.Count - 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen > rank {
			return bucketValue(i)
		}
	}
	return h.Max
}

// P50 is the median sample.
func (h *HistSnapshot) P50() uint64 { return h.Quantile(0.50) }

// P99 is the 99th-percentile sample.
func (h *HistSnapshot) P99() uint64 { return h.Quantile(0.99) }

// P999 is the 99.9th-percentile sample.
func (h *HistSnapshot) P999() uint64 { return h.Quantile(0.999) }

// Snapshot is a point-in-time aggregation over every handle.
type Snapshot struct {
	Hists map[string]*HistSnapshot `json:"histograms"`
}

// Snapshot aggregates all handles. Handles may keep recording
// concurrently; per-cell values are atomically read but the snapshot as
// a whole is not a consistent cut (same contract as pmem.Stats).
func (m *Metrics) Snapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &Snapshot{Hists: make(map[string]*HistSnapshot, len(m.histNames))}
	for i, name := range m.histNames {
		hs := &HistSnapshot{Name: name}
		for _, h := range m.handles {
			hs.Merge(h.hists[i].snapshot(name))
		}
		s.Hists[name] = hs
	}
	return s
}

// Merge folds o into s: histograms merge bucket-wise (exact, same
// layout). The sharded DB frontend uses it to aggregate
// per-shard latency snapshots into one DB-wide view.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	if s.Hists == nil {
		s.Hists = map[string]*HistSnapshot{}
	}
	for name, h := range o.Hists {
		if mine := s.Hists[name]; mine != nil {
			mine.Merge(h)
			continue
		}
		cp := *h
		s.Hists[name] = &cp
	}
}
