package torture

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// TestTortureShort is the tier-1 entry point: a few crash-recover
// rounds per configuration, small enough for -short and -race runs.
// Every row must crash mid-workload at least once, and every sharded
// row inside recovery too, or it exercised nothing.
func TestTortureShort(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"adr-locality", Config{Seed: 1, Threads: 4, Rounds: 4, OpsPerThread: 250}},
		{"adr-gc-off", Config{Seed: 2, Threads: 4, Rounds: 3, OpsPerThread: 200, GC: "off"}},
		{"adr-naive-gc", Config{Seed: 3, Threads: 4, Rounds: 3, OpsPerThread: 200, GC: "naive"}},
		{"eadr", Config{Seed: 4, Threads: 4, Rounds: 4, OpsPerThread: 250, EADR: true}},
		{"adr-torn", Config{Seed: 5, Threads: 4, Rounds: 4, OpsPerThread: 250}},
		{"single-thread", Config{Seed: 6, Threads: 1, Rounds: 4, OpsPerThread: 300}},
		{"batched", Config{Seed: 7, Threads: 4, Rounds: 4, OpsPerThread: 250, BatchSize: 16}},
		{"batched-torn", Config{Seed: 8, Threads: 4, Rounds: 4, OpsPerThread: 250, BatchSize: 32}},
		{"batched-eadr", Config{Seed: 9, Threads: 4, Rounds: 3, OpsPerThread: 200, BatchSize: 16, EADR: true}},
		// A whole-pool power failure under concurrent sessions on four
		// shards, and the same with multi-shard Apply groups. Their
		// seeds arm a fault in three of the five recoveries: one armed
		// recovery may run fewer flushes than the point drawn for it.
		{"sharded", Config{Seed: 13, Threads: 8, Rounds: 5, OpsPerThread: 400, KeySpace: 512,
			Shards: 4, DeviceBytes: 32 << 20}},
		{"sharded-batched", Config{Seed: 22, Threads: 8, Rounds: 5, OpsPerThread: 400, KeySpace: 512,
			Shards: 4, DeviceBytes: 32 << 20, BatchSize: 16}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			recoveryCrashes := 0
			for _, r := range res.Rounds {
				t.Logf("%+v", r)
				if r.RecoveryCrashed {
					recoveryCrashes++
				}
			}
			if res.Failed() {
				for _, v := range res.Violations {
					t.Error(v)
				}
				return
			}
			if res.OpsCompleted == 0 {
				t.Fatal("no operations completed")
			}
			if res.Crashes == 0 {
				t.Fatal("no round crashed mid-workload; the row exercised nothing")
			}
			if c.cfg.Shards > 1 && recoveryCrashes == 0 {
				t.Fatal("no round crashed inside recovery")
			}
		})
	}
}

// TestTortureArtifactRoundTrip checks the failure artifact pipeline on
// a synthetic failed result: the record serializes to JSON, reads back
// identically, and its repro line names every non-default setting.
func TestTortureArtifactRoundTrip(t *testing.T) {
	res := &Result{
		Config: Config{Seed: 7, Threads: 3, Rounds: 5, OpsPerThread: 90, KeySpace: 64,
			GC: "naive", Shards: 4, BatchSize: 8}.withDefaults(),
		Rounds: []RoundReport{{Round: 0, Plan: "calibrate", Crashed: true, Flushes: 12, Completed: 40, InFlight: 2}},
		Violations: []Violation{{Round: 0, Key: 0x2a, Got: 0x1, Reason: "lost a completed write",
			Candidates: []uint64{0x2, 0x3}}},
	}
	a := NewArtifact(res)
	path, err := a.Write(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("artifact did not round-trip:\n got  %+v\n want %+v", got, a)
	}
	want := "ccltorture -seed 7 -duration 0 -mode adr -threads 3 -rounds 5 -ops 90 -keys 64 -gc naive -shards 4 -batch 8"
	if a.ReproCmd != want {
		t.Fatalf("repro line %q, want %q", a.ReproCmd, want)
	}
}

// TestSingleThreadRunDeterministic pins what -replay relies on: a
// single-threaded configuration is a function of its seed, so two runs
// return identical results, crash rounds included.
func TestSingleThreadRunDeterministic(t *testing.T) {
	cfg := Config{Seed: 1, Threads: 1, Rounds: 3, OpsPerThread: 150, GC: "off"}
	var out [2][]byte
	for i := range out {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() || res.Crashes == 0 {
			t.Fatalf("want a clean run with crashes: %+v", res)
		}
		if out[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Fatalf("runs diverged:\n%s\n%s", out[0], out[1])
	}
}

// TestTortureSoak is the long configuration — minutes of wall time —
// gated behind an explicit opt-in (CCL_TORTURE_SOAK=seconds) on top of
// the usual -short guard.
func TestTortureSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	secs, _ := strconv.Atoi(os.Getenv("CCL_TORTURE_SOAK"))
	if secs <= 0 {
		t.Skip("set CCL_TORTURE_SOAK=<seconds> to run the soak")
	}
	deadline := time.Now().Add(time.Duration(secs) * time.Second)
	seed := int64(1000)
	for time.Now().Before(deadline) {
		for _, eadr := range []bool{false, true} {
			cfg := Config{Seed: seed, Threads: 8, Rounds: 6, OpsPerThread: 500,
				EADR: eadr}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				p, _ := NewArtifact(res).Write(filepath.Join(os.TempDir(), "ccltorture"))
				t.Fatalf("seed %d failed (artifact %s): %v", seed, p, res.Violations[0])
			}
			seed++
		}
	}
}
