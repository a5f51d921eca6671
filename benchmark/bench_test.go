package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The smoke tests run everything at 1/100 scale on a 32 MB modeled
// device, so the whole file stays within a few seconds of tier-1.

func smoke(t *testing.T, trace bool) options {
	return options{seed: 7, seconds: 6, scale: 0.01, trace: trace, traceDir: t.TempDir()}
}

// runOne runs one workload the way the command line does.
func runOne(t *testing.T, w io.Writer, name string, o options) *report {
	t.Helper()
	reports, err := run(w, []string{name}, o)
	if err != nil {
		t.Fatal(err)
	}
	return reports[0]
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames asserts that the report holds exactly the declared
// metrics, each under a legal name and with its declared unit.
func checkNames(t *testing.T, r *report, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d declared", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: printed %+v (present %v), declared unit %q", d.Name, m, ok, d.Unit)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := runOne(t, io.Discard, name, smoke(t, false))
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
			}
			checkNames(t, r, measured)
			for name, m := range r.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v: an end-to-end metric is never 0", name, m.Value)
				}
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(r.resultLine()), &line); err != nil {
				t.Fatal(err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("result line keys: %s", r.resultLine())
			}
			var printed map[string]metricValue
			if err := json.Unmarshal(line["metrics"], &printed); err != nil {
				t.Fatal(err)
			}
			checkNames(t, &report{Metrics: printed}, endToEnd)
		})
	}
}

// --workload all takes the same path with several plans: five repeats
// each, in turns.
func TestSmokeInterleaved(t *testing.T) {
	t.Parallel()
	names := []string{"ingest", "served"}
	reports, err := run(io.Discard, names, smoke(t, false))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reports {
		if r.Workload != names[i] || !r.Correct {
			t.Errorf("report %d: workload %q, correct=%v, failed=%d", i, r.Workload, r.Correct, r.Failed)
		}
		checkNames(t, r, measured)
		if n := len(r.Repeats["wall_kops"]); n != repeatsAll {
			t.Errorf("%s: %d repeats, want %d", r.Workload, n, repeatsAll)
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			o := smoke(t, true)
			var out strings.Builder
			r := runOne(t, &out, name, o)
			if !r.Correct {
				t.Errorf("attempted=%d failed=%d", r.Attempted, r.Failed)
			}
			checkNames(t, r, perLayer)
			v := func(name string) float64 { return r.Metrics[name].Value }

			shares := 0.0
			for _, seg := range segmentNames {
				shares += v("core.seg_" + seg + "_share")
			}
			if math.Abs(shares-1) > 1e-9 {
				t.Errorf("core.seg_*_share sum to %v, want 1", shares)
			}

			// Every rung of the ladder reports, and every layer has a self
			// cost: its rung minus the rung below.
			for _, rung := range []string{"pmem.persist16_rand", "pmem.persist16_seq", "pmem.load_rand", "pmalloc.alloc_free",
				"wal.append", "wal.append_batch64", "core.upsert", "core.lookup", "core.scan100", "core.apply64",
				"cclbtree.put", "cclbtree.get", "cclbtree.scan100", "cclbtree.apply64", "cclbtree.put_shards2", "server.put", "server.get"} {
				if !(v(rung+"_wall_ns") > 0) {
					t.Errorf("%s_wall_ns = %v", rung, v(rung+"_wall_ns"))
				}
			}
			if got, want := v("server.put_self_ns"), v("server.put_wall_ns")-v("cclbtree.put_wall_ns"); got != want {
				t.Errorf("server.put_self_ns = %v, want %v", got, want)
			}
			if got, want := v("cclbtree.put_self_ns"), v("cclbtree.put_wall_ns")-v("core.upsert_wall_ns"); got != want {
				t.Errorf("cclbtree.put_self_ns = %v, want %v", got, want)
			}
			if !strings.Contains(out.String(), "layer ladder") {
				t.Error("ladder table not printed")
			}

			// One span file per workload: phases, and op spans that name
			// the measured phase as their parent.
			data, err := os.ReadFile(filepath.Join(o.traceDir, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var f traceFile
			if err := json.Unmarshal(data, &f); err != nil {
				t.Fatal(err)
			}
			byID := map[int]spanJSON{}
			for _, s := range f.Spans {
				byID[s.ID] = s
			}
			ops := 0
			for _, s := range f.Spans {
				if s.End < s.Start {
					t.Fatalf("span %+v ends before it starts", s)
				}
				if s.OpID >= 0 {
					ops++
					if byID[int(s.Parent)].Name != "measure" {
						t.Fatalf("op span %+v: parent is %q", s, byID[int(s.Parent)].Name)
					}
				}
			}
			if ops == 0 || f.OpSpans < ops {
				t.Errorf("%d op spans in the file, %d recorded", ops, f.OpSpans)
			}
			for _, phase := range []string{"setup", "measure", "OpenWithStats", "verify"} {
				found := false
				for _, s := range f.Spans {
					found = found || s.Name == phase
				}
				if !found {
					t.Errorf("no %q span", phase)
				}
			}
		})
	}
}

// The ladder closes: the Session.Put rung costs what a put costs inside
// the single-session ingest workload, which adds nothing but the loop
// around it (the op stream is generated beforehand, so there is no
// generator cost to subtract). At smoke scale both sides are a few
// milliseconds of host time, so the test takes the closest of a few
// attempts; full-scale closure is recorded in README.md.
func TestLadderCloses(t *testing.T) {
	closest := math.Inf(1)
	for range 5 {
		pl, err := buildPlan("ingest", 3, 6, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.repeat(repeatOpts{})
		if err != nil {
			t.Fatal(err)
		}
		lad, err := runLadder(pl, pl.ops())
		if err != nil {
			t.Fatal(err)
		}
		inWorkload := 1e6 / res.wallKops()
		off := math.Abs(lad.get("cclbtree.put").wallNS/inWorkload - 1)
		closest = min(closest, off)
		if closest <= 0.25 {
			return
		}
	}
	t.Errorf("cclbtree.put rung is %.0f%% off the per-op cost of ingest at best, want within 25%%", 100*closest)
}

// Same seed, same inputs, same model: every model-clock and count
// metric repeats, and so do the op counts. A different seed is a
// different key set.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"ingest", "lookup"} {
		t.Run(name, func(t *testing.T) {
			run := func(seed int64) (*plan, *repeatResult) {
				pl, err := buildPlan(name, seed, 6, 0.01)
				if err != nil {
					t.Fatal(err)
				}
				res, err := pl.repeat(repeatOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Fatalf("seed %d: %d ops failed", seed, res.failed)
				}
				return pl, res
			}
			pa, a := run(11)
			_, b := run(11)
			pc, _ := run(12)
			if a.ops != b.ops || a.puts != b.puts || a.attempted() != b.attempted() {
				t.Errorf("op counts differ: %d/%d/%d vs %d/%d/%d", a.ops, a.puts, a.attempted(), b.ops, b.puts, b.attempted())
			}
			ea, eb := a.measured(), b.measured()
			for _, m := range []string{"model_mops", "xbi_amp", "pm_bytes_per_user_byte"} {
				if ea[m] != eb[m] {
					t.Errorf("%s: %v vs %v on the same seed", m, ea[m], eb[m])
				}
			}
			if x, y := ea["allocs_per_op"], eb["allocs_per_op"]; math.Abs(x-y) > 0.02 {
				t.Errorf("allocs_per_op: %v vs %v on the same seed", x, y)
			}
			seen := map[uint64]bool{}
			for _, o := range pa.final {
				seen[o.key] = true
			}
			shared := 0
			for _, o := range pc.final {
				if seen[o.key] {
					shared++
				}
			}
			if shared != 0 {
				t.Errorf("seeds 11 and 12 share %d of %d keys", shared, len(pc.final))
			}
		})
	}
}

// A known durability defect the workloads steer around (README.md,
// "Findings"): with mixed's two sessions seated on sockets 0 and 1 of
// the single shard, the read-back after Pool.Crash now and then finds
// an acknowledged update one version behind — in 3 of 60 smoke-scale
// repeats run alone, never in 60 with both sessions on socket 0. The
// workloads seat every session on the shard's home socket, so this
// test is what keeps the failing seating running: it reports a loss
// and skips. It needs a lucky interleaving, so a pass proves nothing;
// a fix is shown by `go test -run TwoSockets -count 50 ./benchmark`
// without a single skip, and then the seating in plan.repeat can go.
func TestTwoSocketsLoseAckedUpdate(t *testing.T) {
	t.Parallel()
	const attempts = 8
	for seed := range int64(attempts) {
		pl, err := buildPlan("mixed", seed, 6, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.repeat(repeatOpts{twoSockets: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.failed > 0 {
			t.Skipf("known defect: seed %d, sessions on sockets 0 and 1: %d of %d checked operations failed (an acknowledged update is one version behind after Crash + recover)",
				seed, res.failed, res.attempted())
		}
	}
	t.Logf("not reproduced in %d two-socket repeats (about one in twenty loses a write)", attempts)
}

func TestKeyPermIsInjective(t *testing.T) {
	p := newKeyPerm(5)
	seen := map[uint64]bool{}
	for i := uint64(1); i <= 100_000; i++ {
		k := p.key(i)
		if k == 0 || k > wordMask || seen[k] {
			t.Fatalf("rank %d: key %#x is zero, out of range or repeated", i, k)
		}
		seen[k] = true
	}
}

// BENCHMARK.json is the contract later changes are judged by; it must
// say what the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloadNames), len(endToEnd), len(perLayer))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
}

func TestCompare(t *testing.T) {
	base := &report{Workload: "ingest", Attempted: 100, Metrics: map[string]metricValue{}, NoisePct: map[string]float64{}}
	for _, d := range measured {
		base.Metrics[d.Name] = metricValue{Value: 100, Unit: d.Unit}
	}
	write := func(name string, edit func(*report)) string {
		r := *base
		r.Metrics = map[string]metricValue{}
		for k, v := range base.Metrics {
			r.Metrics[k] = v
		}
		r.NoisePct = map[string]float64{}
		edit(&r)
		data, err := json.Marshal([]*report{&r})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", func(*report) {})
	for _, tc := range []struct {
		name      string
		edit      func(*report)
		regressed bool
		row       string
	}{
		{"same", func(*report) {}, false, "ok"},
		{"within bound", func(r *report) { r.Metrics["wall_kops"] = metricValue{Value: 80} }, false, "ok"},
		{"slower", func(r *report) { r.Metrics["wall_kops"] = metricValue{Value: 70} }, true, "regressed"},
		{"faster", func(r *report) { r.Metrics["wall_kops"] = metricValue{Value: 150} }, false, "ok"},
		{"higher latency", func(r *report) { r.Metrics["wall_p99_us"] = metricValue{Value: 130} }, true, "regressed"},
		{"noisy", func(r *report) {
			r.Metrics["wall_kops"] = metricValue{Value: 70}
			r.NoisePct["wall_kops"], r.Noisy = 30, []string{"wall_kops"}
		}, false, "unresolved"},
		{"noisy but far worse", func(r *report) {
			r.Metrics["wall_kops"] = metricValue{Value: 40}
			r.NoisePct["wall_kops"], r.Noisy = 30, []string{"wall_kops"}
		}, true, "regressed"},
		{"failures", func(r *report) { r.Failed = 1 }, true, "regressed"},
	} {
		var out strings.Builder
		regressed, err := compareFiles(&out, a, write("b.json", tc.edit))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.row) {
			t.Errorf("%s: regressed=%v, want %v with a %q row:\n%s", tc.name, regressed, tc.regressed, tc.row, out.String())
		}
	}
	// Reports made from other inputs or under another protocol are
	// refused, not compared.
	for name, edit := range map[string]func(*report){
		"seed":    func(r *report) { r.Seed = 2 },
		"seconds": func(r *report) { r.Seconds = 3 },
		"repeats": func(r *report) { r.Repeats = map[string][]float64{"wall_kops": {1, 2, 3}} },
	} {
		if _, err := compareFiles(io.Discard, a, write("b.json", edit)); err == nil {
			t.Errorf("a report with another %s was compared", name)
		}
	}
}
