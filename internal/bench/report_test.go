package bench

import (
	"testing"

	"cclbtree/internal/obs"
	"cclbtree/internal/workload"
)

// TestReportScopeAttributionSums is the acceptance check: a bench run's
// emitted record must carry a per-scope media-byte breakdown that sums
// EXACTLY to the phase's MediaWriteBytes — the same counters ipmctl
// would report, partitioned without loss.
func TestReportScopeAttributionSums(t *testing.T) {
	StartReport("report-test")
	pool := NewPool(4000, 2)
	idx, err := benchCCL()(pool)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Threads: 2, Warm: 2000, Ops: 2000,
		Mix: workload.MixInsertIntensive, Latency: true, Seed: 3,
	}
	res, err := Run(pool, idx, spec)
	if err != nil {
		t.Fatal(err)
	}
	idx.Close()
	rep := FinishReport()

	if rep == nil || rep.Name != "report-test" || len(rep.Phases) != 1 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	p := rep.Phases[0]
	if p.Index != "CCL-BTree" || p.Threads != 2 || p.Ops != uint64(res.Ops) {
		t.Fatalf("phase identity: %+v", p)
	}
	if p.MediaWriteBytes != res.Stats.MediaWriteBytes {
		t.Fatalf("phase media bytes %d != result %d", p.MediaWriteBytes, res.Stats.MediaWriteBytes)
	}
	var sum uint64
	for _, v := range p.ScopeMediaBytes {
		sum += v
	}
	if sum != p.MediaWriteBytes {
		t.Fatalf("scope attribution sums to %d, MediaWriteBytes is %d (%v)",
			sum, p.MediaWriteBytes, p.ScopeMediaBytes)
	}
	if p.MediaWriteBytes == 0 || p.P99Nanos < p.P50Nanos || p.P50Nanos == 0 {
		t.Fatalf("implausible phase: %+v", p)
	}

	// Round-trip through the BENCH_<name>.json emission.
	path, err := rep.WriteFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	q := back.Phases[0]
	sum = 0
	for _, v := range q.ScopeMediaBytes {
		sum += v
	}
	if sum != q.MediaWriteBytes || q.MediaWriteBytes != p.MediaWriteBytes {
		t.Fatalf("round-tripped record broke the invariant: sum %d media %d", sum, q.MediaWriteBytes)
	}
}

// TestRecordPhaseInactive: Run outside StartReport/FinishReport must
// not record (and must not crash).
func TestRecordPhaseInactive(t *testing.T) {
	if rep := FinishReport(); rep != nil {
		t.Fatalf("stale report: %+v", rep)
	}
	pool := NewPool(400, 1)
	idx, err := benchCCL()(pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(pool, idx, Spec{Threads: 1, Warm: 200, Ops: 200, Mix: workload.MixInsertOnly}); err != nil {
		t.Fatal(err)
	}
	idx.Close()
	if rep := FinishReport(); rep != nil {
		t.Fatalf("phase recorded without an active report: %+v", rep)
	}
}

// TestYCSBBCarriesProfile pins the ycsbb experiment's contract with
// cclstat --replay: its report phase has a profile with segments, locks
// and hot leaves.
func TestYCSBBCarriesProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a bench phase")
	}
	StartReport("ycsbb")
	_, err := YCSBB(Scale{Warm: 3000, Ops: 3000, MainThreads: 4, Seed: 1})
	rep := FinishReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 1 {
		t.Fatalf("ycsbb recorded %d phases, want 1", len(rep.Phases))
	}
	p := rep.Phases[0].Profile
	if p == nil {
		t.Fatal("ycsbb phase has no profile")
	}
	if len(p.Segments) == 0 || len(p.Locks) == 0 || len(p.HotLeaves) == 0 {
		t.Fatalf("profile incomplete: %d segments, %d locks, %d hot leaves",
			len(p.Segments), len(p.Locks), len(p.HotLeaves))
	}
	var hasP99 bool
	for _, s := range p.Segments {
		if s.P99NS > 0 {
			hasP99 = true
		}
	}
	if !hasP99 {
		t.Fatal("no segment carries a p99")
	}
}
