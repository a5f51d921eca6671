package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

func TestBucketMonotone(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 7, 8, 9, 15, 16, 31, 32, 100, 1000, 1 << 20, 1<<40 + 17} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, b, prev)
		}
		if b >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if bv := bucketValue(b); bv > v {
			t.Fatalf("bucketValue(%d) = %d exceeds sample %d", b, bv, v)
		}
		prev = b
	}
	// Round-trip: the representative of v's bucket maps back to the
	// same bucket.
	for v := uint64(0); v < 4096; v++ {
		b := bucketOf(v)
		if bucketOf(bucketValue(b)) != b {
			t.Fatalf("bucketValue(%d)=%d not in bucket %d", b, bucketValue(b), b)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	m := NewMetrics()
	id := m.Histogram("lat")
	h := m.NewHandle()
	// Uniform 1..1000: p50 ≈ 500, p99 ≈ 990, within bucket width (12.5%).
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(id, i)
	}
	s := m.Snapshot()
	hs := s.Hists["lat"]
	if hs.Count != 1000 || hs.Max != 1000 {
		t.Fatalf("count=%d max=%d", hs.Count, hs.Max)
	}
	if got := hs.Mean(); got < 499 || got > 502 {
		t.Fatalf("mean = %v", got)
	}
	if p := hs.P50(); p < 400 || p > 520 {
		t.Fatalf("p50 = %d, want ≈500", p)
	}
	if p := hs.P99(); p < 850 || p > 1000 {
		t.Fatalf("p99 = %d, want ≈990", p)
	}
	if hs.Quantile(1.0) < hs.P99() {
		t.Fatal("quantiles not monotone")
	}
}

func TestCountersAggregateAcrossHandles(t *testing.T) {
	m := NewMetrics()
	ops := m.Counter("ops")
	errs := m.Counter("errs")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		h := m.NewHandle()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				// A fresh handle is created per iteration; ownership transfers to the goroutine.
				h.Add(ops, 1)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Counters["ops"] != 4000 {
		t.Fatalf("ops = %d, want 4000", s.Counters["ops"])
	}
	if s.Counters["errs"] != 0 {
		t.Fatalf("errs = %d", s.Counters["errs"])
	}
	_ = errs
}

func TestRegisterAfterHandlePanics(t *testing.T) {
	m := NewMetrics()
	m.NewHandle()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering after NewHandle")
		}
	}()
	m.Counter("late")
}

func TestNilHandleSafe(t *testing.T) {
	var h *Handle
	h.Add(0, 1)
	h.Observe(0, 1)
}

// TestEmitDisabledZeroAlloc is the tracer-disabled allocation guard
// from the issue's CI satellite: Emit on a disabled (and on a nil)
// tracer must allocate nothing.
func TestEmitDisabledZeroAlloc(t *testing.T) {
	tr := NewTracer(128)
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(EvInsert, 1, 2, 3, 4)
	}); n != 0 {
		t.Fatalf("disabled Emit allocates %v/op, want 0", n)
	}
	var nilTr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		nilTr.Emit(EvInsert, 1, 2, 3, 4)
	}); n != 0 {
		t.Fatalf("nil Emit allocates %v/op, want 0", n)
	}
}

// Enabled Emit must not allocate either — the ring is preallocated.
func TestEmitEnabledZeroAlloc(t *testing.T) {
	tr := NewTracer(128)
	tr.Enable()
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(EvFlushBatch, 1, 2, 3, 4)
	}); n != 0 {
		t.Fatalf("enabled Emit allocates %v/op, want 0", n)
	}
}

// Metrics recording must be allocation-free too.
func TestHandleZeroAlloc(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("ops")
	hid := m.Histogram("lat")
	h := m.NewHandle()
	if n := testing.AllocsPerRun(1000, func() {
		h.Add(c, 1)
		h.Observe(hid, 137)
	}); n != 0 {
		t.Fatalf("recording allocates %v/op, want 0", n)
	}
}

func TestTracerRoundtrip(t *testing.T) {
	tr := NewTracer(64)
	tr.Emit(EvInsert, 0, 1, 2, 3) // disabled: dropped
	tr.Enable()
	for i := 0; i < 10; i++ {
		tr.Emit(EvInsert, i, int64(i*100), uint64(i), 0)
	}
	tr.Emit(EvCrash, 0, 1234, 0, 0)
	tr.Disable()
	tr.Emit(EvLookup, 9, 9, 9, 9) // dropped again

	evs := tr.Events()
	if len(evs) != 11 {
		t.Fatalf("got %d events, want 11", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatal("events not seq-ordered")
		}
	}
	if evs[10].Kind != EvCrash || evs[10].Name != "crash" || evs[10].VT != 1234 {
		t.Fatalf("last event = %+v", evs[10])
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON output not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != 11 || decoded[0]["kind"] != "insert" {
		t.Fatalf("decoded %d events, first %v", len(decoded), decoded[0])
	}

	buf.Reset()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, buf.String())
	}
	if len(chrome.TraceEvents) != 11 || chrome.TraceEvents[0].Ph != "i" {
		t.Fatalf("chrome trace: %d events", len(chrome.TraceEvents))
	}
}

func TestTracerWrap(t *testing.T) {
	tr := NewTracer(64) // capacity rounds to 64
	tr.Enable()
	for i := 0; i < 1000; i++ {
		tr.Emit(EvLookup, 0, int64(i), uint64(i), 0)
	}
	evs := tr.Events()
	if len(evs) != 64 {
		t.Fatalf("ring holds %d, want 64", len(evs))
	}
	if evs[len(evs)-1].Seq != 1000 {
		t.Fatalf("newest seq = %d, want 1000", evs[len(evs)-1].Seq)
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(256)
	tr.Enable()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 5000; i++ {
				tr.Emit(EventKind(r.Intn(int(NumEventKinds))), w, int64(i), uint64(i), 0)
				if i%100 == 0 {
					tr.Events() // concurrent reader
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range tr.Events() {
		if e.Kind >= NumEventKinds {
			t.Fatalf("torn event leaked: %+v", e)
		}
	}
}

func TestBenchReportRoundtrip(t *testing.T) {
	r := &BenchReport{
		Name: "fig9a",
		Phases: []PhaseRecord{{
			Phase: "00:ccl-btree/t4", Index: "ccl-btree", Threads: 4,
			Ops: 1000, MopsPerSec: 1.5, WAFactor: 3.2,
			MediaWriteBytes: 4096,
			ScopeMediaBytes: map[string]uint64{"wal": 1024, "leafbuf": 3072},
		}},
	}
	dir := t.TempDir()
	path, err := r.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_fig9a.json" {
		t.Fatalf("file name %s", path)
	}
	got, err := ReadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "fig9a" || len(got.Phases) != 1 ||
		got.Phases[0].ScopeMediaBytes["wal"] != 1024 {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
}

func TestFileNameSanitizes(t *testing.T) {
	if got := FileName("a/b c"); got != "BENCH_a_b_c.json" {
		t.Fatalf("FileName = %q", got)
	}
}
