package core

import (
	"fmt"
	"testing"

	"cclbtree/internal/obs"
	"cclbtree/internal/pmem"
)

// TestScopeAttributionAcrossHandoff is the satellite test: a worker
// handed to another goroutine, with a caller-pushed scope on its
// thread, must still attribute WAL-append bytes to the wal scope (the
// scope travels with the Thread and wal.Append overrides it), never to
// the caller's scope. Runs under StrictPersist (the pool helper arms
// it), so it doubles as a discipline check on the scope-push paths.
func TestScopeAttributionAcrossHandoff(t *testing.T) {
	// Large Nbatch + few keys: every insert buffers and logs, no
	// trigger flush, so WAL appends dominate the PM write traffic.
	tr, w := newTestTree(t, Options{Nbatch: 8, GC: GCOff}, nil)
	pool := tr.Pool()

	done := make(chan error, 1)
	go func() {
		// The worker (and its Thread) crosses a goroutine boundary —
		// the handoff PL004 polices for captures; here ownership moves
		// wholesale, which is legal.
		prev := w.Thread().PushScope(pmem.ScopeGC) // stand-in caller scope
		defer w.Thread().PopScope(prev)
		for i := uint64(1); i <= 6; i++ {
			if err := w.Upsert(i*1000, i); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	pool.DrainXPBuffers()
	s := pool.Stats()

	if s.XPBufWriteByScope[pmem.ScopeWAL] == 0 {
		t.Fatalf("no xpbuf bytes attributed to wal scope: %v", s.ScopeMediaBytes())
	}
	if s.MediaWriteByScope[pmem.ScopeWAL] == 0 {
		t.Fatalf("no media bytes attributed to wal scope: %v", s.ScopeMediaBytes())
	}
	// The caller's scope (gc) did no PM writes of its own in this
	// workload: no flush, no split, only buffered inserts whose PM
	// traffic is all WAL.
	if got := s.MediaWriteByScope[pmem.ScopeGC]; got != 0 {
		t.Fatalf("caller scope stole %d media bytes from wal", got)
	}
	if got := s.XPBufWriteByScope[pmem.ScopeGC]; got != 0 {
		t.Fatalf("caller scope stole %d xpbuf bytes from wal", got)
	}
	var sum uint64
	for _, v := range s.MediaWriteByScope {
		sum += v
	}
	if sum != s.MediaWriteBytes {
		t.Fatalf("scope sum %d != MediaWriteBytes %d", sum, s.MediaWriteBytes)
	}
}

// TestScopeBreakdownCoversComponents drives flushes, splits and GC and
// checks each component's scope shows up while the partition invariant
// holds.
func TestScopeBreakdownCoversComponents(t *testing.T) {
	tr, w := newTestTree(t, Options{Nbatch: 2}, nil)
	pool := tr.Pool()
	for i := uint64(1); i <= 3000; i++ {
		if err := w.Upsert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	tr.ForceGC()
	tr.Freeze()
	pool.DrainXPBuffers()
	s := pool.Stats()
	var sum uint64
	for _, v := range s.MediaWriteByScope {
		sum += v
	}
	if sum != s.MediaWriteBytes {
		t.Fatalf("scope sum %d != MediaWriteBytes %d (%v)", sum, s.MediaWriteBytes, s.ScopeMediaBytes())
	}
	for _, sc := range []pmem.Scope{pmem.ScopeLeafBuf, pmem.ScopeWAL, pmem.ScopeSplit, pmem.ScopeMeta} {
		if s.MediaWriteByScope[sc] == 0 {
			t.Fatalf("scope %v has no media bytes: %v", sc, s.ScopeMediaBytes())
		}
	}
}

// TestMetricsLatencyHistograms exercises Options.Metrics end to end.
func TestMetricsLatencyHistograms(t *testing.T) {
	tr, w := newTestTree(t, Options{Metrics: true}, nil)
	for i := uint64(1); i <= 500; i++ {
		if err := w.Upsert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 100; i++ {
		w.Lookup(i)
	}
	out := make([]KV, 16)
	w.Scan(1, 16, out)

	tm := tr.Metrics()
	if tm.Latency == nil {
		t.Fatal("Latency nil with Metrics on")
	}
	ins := tm.Latency.Hists["insert_ns"]
	if ins == nil || ins.Count != 500 {
		t.Fatalf("insert histogram: %+v", ins)
	}
	if ins.P99() < ins.P50() || ins.P50() == 0 {
		t.Fatalf("implausible quantiles p50=%d p99=%d", ins.P50(), ins.P99())
	}
	if lk := tm.Latency.Hists["lookup_ns"]; lk.Count != 100 {
		t.Fatalf("lookup count %d", lk.Count)
	}
	if sc := tm.Latency.Hists["scan_ns"]; sc.Count != 1 {
		t.Fatalf("scan count %d", sc.Count)
	}
	if tm.Counters.Upserts != 500 {
		t.Fatalf("counters not carried: %+v", tm.Counters)
	}

	// Var, large-value and indirect traffic goes through the same entry
	// shims: every op issued is one histogram sample and one span.
	t.Run("VarKV", func(t *testing.T) {
		tr, w := newTestTree(t, Options{Metrics: true, VarKV: true}, nil)
		for i := 0; i < 100; i++ {
			if err := putVar(w, []byte(fmt.Sprintf("key-%03d", i)), []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			if _, ok := w.LookupVar([]byte(fmt.Sprintf("key-%03d", i))); !ok {
				t.Fatalf("key-%03d missing", i)
			}
		}
		for i := 0; i < 10; i++ {
			if err := deleteVar(w, []byte(fmt.Sprintf("key-%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(w.ScanVar(nil, 200)); got != 90 {
			t.Fatalf("ScanVar returned %d entries, want 90", got)
		}
		checkOpCounts(t, tr, 110, 100, 1)
	})
	t.Run("LargeValue", func(t *testing.T) {
		tr, w := newTestTree(t, Options{Metrics: true}, nil)
		blob, err := w.blobs.write(w.t, []byte("out of band"))
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 100; i++ {
			if err := putLarge(w, i, make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
			if err := w.UpsertIndirect(1000+i, blob); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(1); i <= 100; i++ {
			if v, ok := w.LookupLargeValue(i); !ok || len(v) != 64 {
				t.Fatalf("LookupLargeValue(%d) = %d bytes, %v", i, len(v), ok)
			}
		}
		checkOpCounts(t, tr, 200, 100, 0)
	})

	// Metrics off: Latency must be nil, counters still live.
	tr2, w2 := newTestTree(t, Options{}, nil)
	if err := w2.Upsert(1, 1); err != nil {
		t.Fatal(err)
	}
	if tm2 := tr2.Metrics(); tm2.Latency != nil || tm2.Counters.Upserts != 1 {
		t.Fatalf("metrics-off snapshot: %+v", tm2)
	}
}

// checkOpCounts asserts that the latency histograms and the span matrix
// each saw exactly the single writes, point reads and scans issued.
func checkOpCounts(t *testing.T, tr *Tree, writes, lookups, scans uint64) {
	t.Helper()
	lat := tr.Metrics().Latency
	for name, want := range map[string]uint64{"insert_ns": writes, "lookup_ns": lookups, "scan_ns": scans} {
		if got := lat.Hists[name].Count; got != want {
			t.Errorf("%s holds %d samples, want %d", name, got, want)
		}
	}
	// Every op advances the clock past its start, so each leaves at
	// least one span cell; the flush and traversal cells are the ones
	// every write and every read fills.
	_, cells := segSums(tr.Profile())
	if got := cells["put/flush"]; got != writes {
		t.Errorf("put/flush span cell holds %d samples, want %d", got, writes)
	}
	if got := cells["get/traverse"]; got != lookups {
		t.Errorf("get/traverse span cell holds %d samples, want %d", got, lookups)
	}
}

// TestTreeTracerEvents wires a tracer through Options and the device
// hook and checks tree + device events arrive.
func TestTreeTracerEvents(t *testing.T) {
	trc := obs.NewTracer(4096)
	trc.Enable()
	tr, w := newTestTree(t, Options{Nbatch: 2, Tracer: trc}, nil)
	tr.Pool().SetDeviceTracer(trc.DeviceHook())
	for i := uint64(1); i <= 2000; i++ {
		if err := w.Upsert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	w.Lookup(7)
	kinds := map[obs.EventKind]int{}
	for _, e := range trc.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []obs.EventKind{obs.EvInsert, obs.EvLookup, obs.EvFlushBatch, obs.EvSplit, obs.EvXPBufEvict} {
		if kinds[k] == 0 {
			t.Fatalf("no %v events recorded: %v", k, kinds)
		}
	}
}

// TestHotPathAllocs is the acceptance guard: obs left disabled adds
// zero allocations to the hot paths. The read path must be absolutely
// allocation-free; the insert path is compared against a tree with no
// obs options at all, because the device model itself allocates flush
// snapshots (pre-existing, not obs traffic).
func TestHotPathAllocs(t *testing.T) {
	setup := func(opts Options) *Worker {
		_, w := newTestTree(t, opts, nil)
		for i := uint64(1); i <= 64; i++ {
			if err := w.Upsert(i, i); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	insertAllocs := func(w *Worker) float64 {
		var v uint64
		return testing.AllocsPerRun(500, func() {
			v++
			if err := w.Upsert(7, v); err != nil {
				t.Fatal(err)
			}
		})
	}

	plain := setup(Options{Nbatch: 4, GC: GCOff})
	withObsOff := setup(Options{Nbatch: 4, GC: GCOff, Tracer: obs.NewTracer(128)}) // present, disabled

	if base, got := insertAllocs(plain), insertAllocs(withObsOff); got > base {
		t.Fatalf("disabled obs adds insert allocations: %v/op vs %v/op baseline", got, base)
	}
	if n := testing.AllocsPerRun(500, func() {
		plain.Lookup(7)
	}); n > 0 {
		t.Fatalf("lookup hot path allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		withObsOff.Lookup(7)
	}); n > 0 {
		t.Fatalf("lookup with disabled tracer allocates %v/op, want 0", n)
	}
}
