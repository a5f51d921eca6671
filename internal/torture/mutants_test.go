package torture_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// edit is one exact source substitution; old must occur exactly once in
// file (a slash path from the module root).
type edit struct{ file, old, new string }

// mutant is one named bug in the crash-consistency or read protocol and
// its committed kill row.
type mutant struct {
	name  string
	edits []edit
	// unit is the go test argument list of the unit column: the mutated
	// package's own -short tests.
	unit []string
	want row // the committed kill row
	// survives is, for a row no gate kills, why: the mutant cannot lose
	// data under the device model, or an open defect leaves it unjudged.
	survives string
}

// coreUnit is the unit column of the internal/core mutants: the
// targeted crash-order, group-logging and reclamation-epoch tests. The
// flush-boundary matrices (TestCrashAtEveryFlushBoundary*) are left out
// for time, and the rest of core's -short suite races goroutines, so
// its verdicts on a mutant would depend on the schedule.
var coreUnit = []string{"-short", "-run", "^(TestCrash[^A]|TestGroup|TestEpoch)", "./internal/core"}

// walUnit is the whole wal suite.
var walUnit = []string{"-short", "./internal/wal"}

// hashUnit is the whole cclhash suite.
var hashUnit = []string{"-short", "./internal/cclhash"}

// mutants is the kill matrix. DESIGN.md ("Scoring the gates") carries
// the same table.
var mutants = []mutant{
	{
		name: "wal-append-nofence",
		edits: []edit{{"internal/wal/wal.go",
			"\tflushSpan()\n\tt.Fence()\n\treturn addr, nil\n",
			"\tflushSpan()\n\treturn addr, nil\n"}},
		unit: walUnit, want: row{unit: true, torture: true},
	},
	{
		// The yields put a preemption point between the unsynchronized
		// slot loads, so a concurrent writer tears them on any runner.
		name: "read-verdict-ignored",
		edits: []edit{
			{"internal/core/worker.go", "\tok := n.validateRead(ver)\n", "\tn.validateRead(ver)\n"},
			{"internal/core/worker.go",
				"\t\tw.segAcc[obs.SegValidate] += c\n\t}\n\treturn ok\n}",
				"\t\tw.segAcc[obs.SegValidate] += c\n\t}\n\treturn true\n}"},
			{"internal/core/worker.go", "\t\tv := n.slotVal(i)\n", "\t\truntime.Gosched()\n\t\tv := n.slotVal(i)\n"},
			{"internal/core/worker.go",
				"\t\t\tcands = append(cands, scanCand{KV{k, n.slotVal(i)}, true})",
				"\t\t\truntime.Gosched()\n\t\t\tcands = append(cands, scanCand{KV{k, n.slotVal(i)}, true})"},
		},
		unit: coreUnit, want: row{torture: true},
	},
	{
		// The buffer-hit path's recheck goes, with the same yield. PL010
		// does not fire: the version comes from bufferNode.beginRead, and
		// the re-check obligation that escapes with it is not followed
		// into the caller.
		name: "read-recheck-dropped",
		edits: []edit{{"internal/core/worker.go",
			"\t\tv := n.slotVal(i)\n\t\tif !w.readRecheck(n, ver) {\n\t\t\treturn 0, false, false\n\t\t}\n",
			"\t\truntime.Gosched()\n\t\tv := n.slotVal(i)\n"}},
		unit: coreUnit, want: row{torture: true},
	},
	{
		name: "leaf-data-nofence",
		edits: []edit{{"internal/core/leafops.go",
			"\tpmleaf.PersistSpan(w.t, &img, dirty)\n",
			"\tif dirty.Hi > 0 {\n\t\tfor wd := dirty.Lo; wd < dirty.Hi; wd++ {\n" +
				"\t\t\tw.t.Store(n.leaf.Add(int64(8*wd)), img.Words[wd])\n\t\t}\n" +
				"\t\tw.t.Flush(n.leaf.Add(int64(8*dirty.Lo)), 8*(dirty.Hi-dirty.Lo))\n\t}\n"}},
		unit: coreUnit, want: row{unit: true},
	},
	{
		name: "leaf-stamp-skipped",
		edits: []edit{{"internal/core/leafops.go",
			"img.SetTS(w.Stamp(img.TS()))", "img.SetTS(img.TS())"}},
		unit: coreUnit, want: row{unit: true, torture: true},
	},
	{
		// An op that ends in a buffer slot is acknowledged with no
		// record: a crash before its leaf is flushed loses it.
		name: "buffered-run-unlogged",
		edits: []edit{{"internal/core/batch.go",
			"if r.fits || (tr.opts.NaiveLogging && n.nbatch() > 0) {",
			"if tr.opts.NaiveLogging && n.nbatch() > 0 {"}},
		unit: coreUnit, want: row{unit: true, torture: true},
	},
	{
		// The epoch is read before the group's nodes are locked: a GC
		// round can flip and copy a node's old slots between the read
		// and the lock, then reclaim the old generation the group's
		// records went to, while their slots still carry its bit.
		name: "epoch-read-before-lock",
		edits: []edit{{"internal/core/batch.go",
			"\truns := w.lockRuns(kvs)\n\tsm, wal0, trig0 := w.segBegin(), w.segAcc[obs.SegWAL], w.segAcc[obs.SegTrigger]\n\te := tr.epoch.Load()\n",
			"\te := tr.epoch.Load()\n\truns := w.lockRuns(kvs)\n\tsm, wal0, trig0 := w.segBegin(), w.segAcc[obs.SegWAL], w.segAcc[obs.SegTrigger]\n"}},
		unit: coreUnit, want: row{unit: true},
	},
	{
		name: "replay-gate-inclusive",
		edits: []edit{{"internal/core/recovery.go",
			"if p.ts > leafTS {", "if p.ts >= leafTS {"}},
		unit: coreUnit,
		survives: "not equivalent, unjudged until ROADMAP item 2: a record ties its leaf's stamp only " +
			"across sockets, inside ORDO's uncertainty. A tie after the record's slot was published means " +
			"the flush carried its value or a newer one, and replaying it can overwrite a newer trigger KV; " +
			"a tie before means the flush never carried it, and the strict gate drops it. Both are item 2's " +
			"cross-socket tick order, which no gate orders until its per-node tick floor",
	},
	{
		// Every surviving record becomes a group of its own and is
		// replayed alone: a crash inside recovery then finds a leaf
		// stamped while its other records still wait in the log.
		name: "replay-per-record",
		edits: []edit{{"internal/core/recovery.go",
			"groups[chainPos[n]] = append(groups[chainPos[n]], candidates[j].kv)",
			"groups = append(groups, []KV{candidates[j].kv})"}},
		unit: coreUnit, want: row{unit: true, torture: true},
	},
	{
		// The hash table's chain flush stamps and publishes the home
		// bucket's header before its data is written: a crash in
		// between leaves a bitmap naming unwritten slots and a stamp
		// that gates the bucket's records out of replay.
		name: "hash-home-published-first",
		edits: []edit{{"internal/cclhash/cclhash.go",
			"\t// Phase 1: data, durable before any header is published. Fresh\n",
			"\tchain[0].img.SetTS(w.Stamp(chain[0].img.TS()))\n\tpmleaf.WriteHeader(t, &chain[0].img)\n" +
				"\t// Phase 1: data, durable before any header is published. Fresh\n"}},
		unit: hashUnit, want: row{unit: true},
	},
	{
		name:  "epoch-pin-skipped",
		edits: []edit{{"internal/core/worker.go", "\tw.tree.epochEnter(w)\n", ""}},
		unit:  coreUnit, want: row{unit: true},
	},
}

// TestMutants scores the crash-consistency gates against the named bugs
// above. Each mutant is applied to a private copy of the module, and
// three gates run against the copy:
//
//   - persistlint over ./..., test files included, as scripts/check.sh
//     runs it; it kills when any rule fires (the clean tree has no
//     findings), and the row records which rules;
//   - unit: the mutated package's own -short tests, whose pools run
//     with StrictPersist on;
//   - torture: TestTortureShort, the crash-recovery and read oracles,
//     on one processor: at GOMAXPROCS 2 the clean tree itself loses an
//     update in about 1 run in 20 (ROADMAP item 2), which would flip
//     the cells of the survivors.
//
// Each observed row must equal the committed one, so a gate that goes
// blind, or a new test that kills a survivor, shows up as a diff. The
// unmutated tree is the control: the regular suite and persistlint
// already hold it clean. One MUTANT line per cell is printed.
func TestMutants(t *testing.T) {
	if testing.Short() {
		t.Skip("the kill matrix re-tests a copy of the module per mutant")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	lint := filepath.Join(t.TempDir(), "persistlint")
	if out, err := goCmd(root, "build", "-o", lint, "./cmd/persistlint"); err != nil {
		t.Fatalf("building persistlint: %v\n%s", err, out)
	}

	rows := make([]row, len(mutants))
	t.Run("matrix", func(t *testing.T) {
		for i, m := range mutants {
			i, m := i, m
			t.Run(m.name, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				copyModule(t, root, dir)
				m.apply(t, dir)
				rows[i] = row{
					lint:    lintCodes(t, lint, dir),
					unit:    killed(t, dir, m.unit...),
					torture: killed(t, dir, tortureGate...),
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	for i, m := range mutants {
		got, want := rows[i], m.want
		for _, c := range got.cells() {
			fmt.Printf("MUTANT %s %s\n", m.name, c)
		}
		if got != want {
			t.Errorf("%s: kill row %v, committed %v", m.name, got.cells(), want.cells())
		}
		if want == (row{}) && m.survives == "" {
			t.Errorf("%s: no gate kills it and the row gives no reason", m.name)
		}
	}
}

// tortureGate is the go test argument list of the torture column.
var tortureGate = []string{"-cpu=1", "-run", "^TestTortureShort$", "./internal/torture"}

// TestTortureCatchesSkippedFence checks the torture column's verdict on
// wal-append-nofence in detail: a log append that returns before its
// entry is fenced loses completed writes at a crash, and the oracle must
// report the loss against the key it happened to.
func TestTortureCatchesSkippedFence(t *testing.T) {
	out := tortureCatches(t, "wal-append-nofence")
	if !regexp.MustCompile(`round \d+ key 0x[1-9a-f][0-9a-f]*: `).Match(out) {
		t.Fatalf("violations carry no key-level detail:\n%s", out)
	}
}

// TestTortureCatchesSkippedReadRecheck checks the torture column's
// verdict on read-verdict-ignored in detail: optimistic readers that
// ignore their re-validation return pairs torn by concurrent writers,
// and only the read-attribution oracle may object, since recovery state
// is untouched.
func TestTortureCatchesSkippedReadRecheck(t *testing.T) {
	out := tortureCatches(t, "read-verdict-ignored")
	found := regexp.MustCompile(`round \d+ key 0x[0-9a-f]+: ([^\n]*)`).FindAllSubmatch(out, -1)
	if len(found) == 0 {
		t.Fatalf("the oracles reported no violation:\n%s", out)
	}
	for _, m := range found {
		if !bytes.Contains(m[1], []byte("observed")) {
			t.Fatalf("skipped recheck produced a non-read violation: %s", m[0])
		}
	}
}

// tortureCatches applies the named mutant to a copy of the module, runs
// the torture column against it, fails the test unless the oracles
// kill it, and returns the test output, violations included.
func tortureCatches(t *testing.T, name string) []byte {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mutants {
		if m.name != name {
			continue
		}
		dir := t.TempDir()
		copyModule(t, root, dir)
		m.apply(t, dir)
		start := time.Now()
		failed, out := goTest(t, dir, tortureGate...)
		if !failed {
			t.Fatalf("the torture oracles missed mutant %s:\n%s", name, out)
		}
		t.Logf("mutant %s caught in %v", name, time.Since(start))
		return out
	}
	t.Fatalf("no mutant %s", name)
	return nil
}

// row is one mutant's outcome per gate.
type row struct {
	lint          string // firing persistlint codes, comma-separated
	unit, torture bool
}

func (r row) cells() []string {
	verdict := func(k bool) string {
		if k {
			return "killed"
		}
		return "survived"
	}
	lint := "persistlint=survived"
	if r.lint != "" {
		lint = "persistlint=killed " + r.lint
	}
	return []string{lint, "unit=" + verdict(r.unit), "torture=" + verdict(r.torture)}
}

// apply performs m's edits in the copy at dir.
func (m mutant) apply(t *testing.T, dir string) {
	t.Helper()
	for _, e := range m.edits {
		path := filepath.Join(dir, filepath.FromSlash(e.file))
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), e.old); n != 1 {
			t.Fatalf("mutant %s: %q occurs %d times in %s, want exactly once", m.name, e.old, n, e.file)
		}
		src = []byte(strings.Replace(string(src), e.old, e.new, 1))
		if err := os.WriteFile(path, src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// copyModule copies the module at root into dst, leaving out hidden
// directories and the benchmark's output directory.
func copyModule(t *testing.T, root, dst string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == filepath.Join("benchmark", "out")) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying the module: %v", err)
	}
}

// lintCodes runs persistlint over the copy and returns the sorted,
// comma-separated codes that fire.
func lintCodes(t *testing.T, bin, dir string) string {
	t.Helper()
	cmd := exec.Command(bin, "-tests", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		t.Fatalf("persistlint: %v\n%s", err, stderr.String())
	}
	seen := map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var f struct{ Code string }
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("persistlint output: %v", err)
		}
		seen[f.Code] = true
	}
	codes := make([]string, 0, len(seen))
	for c := range seen {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	return strings.Join(codes, ",")
}

// killed runs go test with args in the copy and reports whether it
// failed. A copy that does not build is a broken mutant, not a kill.
func killed(t *testing.T, dir string, args ...string) bool {
	t.Helper()
	failed, _ := goTest(t, dir, args...)
	return failed
}

// goTest runs go test with args in dir and reports whether the tests
// failed, with the output. It fails t on a build or setup failure.
func goTest(t *testing.T, dir string, args ...string) (bool, []byte) {
	t.Helper()
	out, err := goCmd(dir, append([]string{"test", "-count=1", "-vet=off", "-timeout=5m"}, args...)...)
	if err == nil {
		return false, out
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")) {
		t.Fatalf("go test %v: %v\n%s", args, err, out)
	}
	return true, out
}

// goCmd runs the go tool in dir, returning its combined output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	return cmd.CombinedOutput()
}
