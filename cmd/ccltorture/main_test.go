package main

import (
	"bytes"
	"strings"
	"testing"

	"cclbtree/internal/torture"
)

// TestRunClean exercises the CLI end to end with one tiny clean run.
func TestRunClean(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-seed", "11", "-duration", "0", "-threads", "2", "-mode", "adr",
		"-rounds", "2", "-ops", "100", "-out", t.TempDir(),
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "run(s) clean") {
		t.Fatalf("missing summary: %s", out.String())
	}
}

// TestReplayReproducesRun replays an artifact recording a clean
// single-thread configuration: the replay exits 0 and prints the same
// summary line as the run it records.
func TestReplayReproducesRun(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-seed", "3", "-duration", "0", "-threads", "1", "-mode", "adr",
		"-gc", "off", "-rounds", "2", "-ops", "120", "-out", t.TempDir(),
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	want := summaryLine(t, out.String())

	cfg := torture.Config{Seed: 3, Threads: 1, Rounds: 2, OpsPerThread: 120,
		KeySpace: 256, GC: "off"}
	path, err := torture.NewArtifact(&torture.Result{Config: cfg}).Write(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-replay", path, "-out", t.TempDir()}, &out, &errb); code != 0 {
		t.Fatalf("replay exit %d, stderr: %s", code, errb.String())
	}
	if got := summaryLine(t, out.String()); got != want {
		t.Fatalf("replay summary %q, want %q", got, want)
	}
}

// TestReproLineReproducesRun runs the repro line a failure artifact
// prints, split into arguments: it parses, runs the recorded
// configuration exactly once, and prints the summary line of the run
// the artifact records.
func TestReproLineReproducesRun(t *testing.T) {
	cfg := torture.Config{Seed: 5, Threads: 1, Rounds: 3, OpsPerThread: 120,
		KeySpace: 128, GC: "off", Shards: 2, BatchSize: 4}
	var out, errb bytes.Buffer
	if code := oneRun(cfg, t.TempDir(), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	want := summaryLine(t, out.String())

	args := strings.Fields(torture.NewArtifact(&torture.Result{Config: cfg}).ReproCmd)
	if args[0] != "ccltorture" {
		t.Fatalf("repro line %q does not start with the command", args)
	}
	out.Reset()
	if code := run(append(args[1:], "-out", t.TempDir()), &out, &errb); code != 0 {
		t.Fatalf("repro line exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "1 run(s) clean") {
		t.Fatalf("repro line did not run exactly once:\n%s", out.String())
	}
	if got := summaryLine(t, out.String()); got != want {
		t.Fatalf("repro line summary %q, want %q", got, want)
	}
}

// summaryLine returns the per-run "seed ..." line of a ccltorture run.
func summaryLine(t *testing.T, out string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "seed ") {
			return l
		}
	}
	t.Fatalf("no summary line in:\n%s", out)
	return ""
}

// TestRunBadFlags covers the error paths.
func TestRunBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "nvdimm"}, &out, &errb); code != 2 {
		t.Fatalf("bad -mode: exit %d (want 2)", code)
	}
	if code := run([]string{"-replay", "/does/not/exist.json"}, &out, &errb); code != 2 {
		t.Fatalf("bad -replay: exit %d (want 2)", code)
	}
}
