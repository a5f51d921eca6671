package bench

import (
	"strings"
	"testing"

	"cclbtree/internal/obs"
)

func gateReport(mops, wa, cli float64, p99 uint64) *obs.BenchReport {
	return &obs.BenchReport{
		Name: "ycsbb",
		Phases: []obs.PhaseRecord{{
			Phase:      "00:CCL-BTree/t8",
			MopsPerSec: mops,
			WAFactor:   wa,
			CLIFactor:  cli,
			P99Nanos:   p99,
		}},
	}
}

func TestCompareReportsWithinTolerance(t *testing.T) {
	base := gateReport(10, 4, 2, 1000)
	// 20% worse everywhere: inside the 35% default band (p99 gets 2×tol).
	cur := gateReport(8, 4.8, 2.4, 1200)
	if v := CompareReports(base, cur, 0); len(v) != 0 {
		t.Fatalf("within-tolerance drift flagged: %v", v)
	}
	// Improvement in every direction never trips the gate.
	if v := CompareReports(base, gateReport(20, 2, 1, 500), 0); len(v) != 0 {
		t.Fatalf("improvement flagged: %v", v)
	}
}

func TestCompareReportsCatchesEachMetric(t *testing.T) {
	base := gateReport(10, 4, 2, 1000)
	cases := []struct {
		name string
		cur  *obs.BenchReport
		want string
	}{
		{"throughput", gateReport(6, 4, 2, 1000), "throughput"},
		{"wa", gateReport(10, 6, 2, 1000), "write amplification"},
		{"cli", gateReport(10, 4, 3, 1000), "CLI amplification"},
		{"p99", gateReport(10, 4, 2, 2000), "p99 latency"},
	}
	for _, c := range cases {
		v := CompareReports(base, c.cur, 0)
		if len(v) != 1 || !strings.Contains(v[0], c.want) {
			t.Errorf("%s: violations = %v, want one mentioning %q", c.name, v, c.want)
		}
	}
}

func TestCompareReportsMissingPhase(t *testing.T) {
	base := gateReport(10, 4, 2, 1000)
	cur := &obs.BenchReport{Name: "ycsbb"}
	v := CompareReports(base, cur, 0)
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("violations = %v, want missing-phase", v)
	}
	// Extra phases in cur are new coverage, not regressions.
	cur = gateReport(10, 4, 2, 1000)
	cur.Phases = append(cur.Phases, obs.PhaseRecord{Phase: "01:new/t1"})
	if v := CompareReports(base, cur, 0); len(v) != 0 {
		t.Fatalf("extra current phase flagged: %v", v)
	}
}

func TestCompareReportsCustomTolerance(t *testing.T) {
	base := gateReport(10, 4, 2, 1000)
	cur := gateReport(9, 4, 2, 1000) // −10%
	if v := CompareReports(base, cur, 0.05); len(v) != 1 {
		t.Fatalf("tight tolerance missed a −10%% throughput drop: %v", v)
	}
	if v := CompareReports(base, cur, 0.20); len(v) != 0 {
		t.Fatalf("loose tolerance flagged a −10%% throughput drop: %v", v)
	}
}

// TestYCSBBCarriesProfile pins the ycsbb experiment's contract with the
// CI gate: its report phase has a profile with segments, locks and hot
// leaves, and the gate passes when compared against itself.
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
	if v := CompareReports(rep, rep, 0); len(v) != 0 {
		t.Fatalf("self-comparison regressed: %v", v)
	}
}
