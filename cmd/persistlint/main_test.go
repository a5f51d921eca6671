package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const cleanSrc = `package p

import "cclbtree/internal/pmem"

func ok(t *pmem.Thread, a pmem.Addr) {
	t.Store(a, 1)
	t.Persist(a, 8)
}
`

const leakySrc = `package p

import "cclbtree/internal/pmem"

func leakStore(t *pmem.Thread, a pmem.Addr) {
	t.Store(a, 1)
}

func leakFlush(t *pmem.Thread, a pmem.Addr) {
	t.Store(a, 1)
	t.Flush(a, 8)
}
`

// writeDir materializes a one-package directory for the CLI to scan.
func writeDir(t *testing.T, name, src string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "p")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestExitCodes pins the CLI contract: 0 clean, 1 findings, 2 usage or
// parse errors.
func TestExitCodes(t *testing.T) {
	var out, errb bytes.Buffer

	clean := writeDir(t, "clean.go", cleanSrc)
	if code := run([]string{clean}, &out, &errb); code != 0 {
		t.Errorf("clean dir: exit %d, want 0 (stderr: %s)", code, errb.String())
	}

	out.Reset()
	errb.Reset()
	leaky := writeDir(t, "leaky.go", leakySrc)
	if code := run([]string{leaky}, &out, &errb); code != 1 {
		t.Errorf("leaky dir: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "PL001") || !strings.Contains(out.String(), "PL002") {
		t.Errorf("leaky dir output missing PL001/PL002:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "finding(s)") {
		t.Errorf("leaky dir stderr missing summary line: %s", errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{filepath.Join(t.TempDir(), "no-such-dir")}, &out, &errb); code != 2 {
		t.Errorf("missing dir: exit %d, want 2", code)
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}

	out.Reset()
	errb.Reset()
	broken := writeDir(t, "broken.go", "package p\nfunc {")
	if code := run([]string{broken}, &out, &errb); code != 2 {
		t.Errorf("parse error: exit %d, want 2", code)
	}
}

// TestJSONShape checks the -json wire form: one object per line with
// the stable key set CI diffs against.
func TestJSONShape(t *testing.T) {
	var out, errb bytes.Buffer
	leaky := writeDir(t, "leaky.go", leakySrc)
	if code := run([]string{"-json", leaky}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 JSON lines, got %d:\n%s", len(lines), out.String())
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSON line %q: %v", line, err)
		}
		for _, k := range []string{"file", "line", "col", "code", "func", "message"} {
			if _, ok := m[k]; !ok {
				t.Errorf("JSON line missing key %q: %s", k, line)
			}
		}
	}
	// -json keeps stdout machine-clean: no summary line anywhere.
	if strings.Contains(errb.String(), "finding(s)") {
		t.Errorf("-json should suppress the stderr summary, got: %s", errb.String())
	}
}

// TestDeterministicOutput runs the same analysis twice and demands
// byte-identical output: CI diffs depend on stable ordering.
func TestDeterministicOutput(t *testing.T) {
	leaky := writeDir(t, "leaky.go", leakySrc)
	var first string
	for i := 0; i < 3; i++ {
		var out, errb bytes.Buffer
		if code := run([]string{"-json", leaky}, &out, &errb); code != 1 {
			t.Fatalf("run %d: exit %d, want 1", i, code)
		}
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("run %d output differs:\n%s\nvs\n%s", i, out.String(), first)
		}
	}
}

// corpusDir is the analyzer's own golden corpus: the one directory
// guaranteed to exercise every rule.
const corpusDir = "../../internal/analysis/persist/testdata"

// TestBudgetFlag: an impossible budget fails the run with exit 2, a
// generous one changes nothing.
func TestBudgetFlag(t *testing.T) {
	leaky := writeDir(t, "leaky.go", leakySrc)
	var out, errb bytes.Buffer
	if code := run([]string{"-budget", "1ns", leaky}, &out, &errb); code != 2 {
		t.Errorf("-budget 1ns: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "over the") {
		t.Errorf("-budget 1ns stderr missing breach message: %s", errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-budget", "1m", leaky}, &out, &errb); code != 1 {
		t.Errorf("-budget 1m: exit %d, want 1", code)
	}
}

// TestCorpusDeterminism runs the analyzer's full golden corpus — every
// rule firing at once — through -json twice and demands byte-identical
// output, and that each rule contributes at least one line.
func TestCorpusDeterminism(t *testing.T) {
	var first string
	for i := 0; i < 2; i++ {
		var out, errb bytes.Buffer
		if code := run([]string{"-json", corpusDir}, &out, &errb); code != 1 {
			t.Fatalf("run %d: exit %d, want 1 (stderr: %s)", i, code, errb.String())
		}
		if i == 0 {
			first = out.String()
			for _, c := range []string{"PL001", "PL002", "PL007", "PL010"} {
				if !strings.Contains(first, c) {
					t.Errorf("corpus JSON missing %s findings", c)
				}
			}
		} else if out.String() != first {
			t.Fatalf("run %d -json output differs:\n%s\nvs\n%s", i, out.String(), first)
		}
	}
}

// TestSARIFOutput checks -sarif renders a valid 2.1.0 log with the
// full rule catalog and one result per finding, to stdout or a file.
func TestSARIFOutput(t *testing.T) {
	leaky := writeDir(t, "leaky.go", leakySrc)

	var out, errb bytes.Buffer
	if code := run([]string{"-sarif", "-", leaky}, &out, &errb); code != 1 {
		t.Fatalf("-sarif -: exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("bad SARIF: %v\n%s", err, out.String())
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Fatalf("wrong SARIF shell: version %q, %d runs", doc.Version, len(doc.Runs))
	}
	run0 := doc.Runs[0]
	if run0.Tool.Driver.Name != "persistlint" {
		t.Errorf("driver name %q", run0.Tool.Driver.Name)
	}
	ruleIDs := map[string]bool{}
	for _, r := range run0.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, want := range []string{"PL000", "PL001", "PL002", "PL007", "PL010"} {
		if !ruleIDs[want] {
			t.Errorf("rule catalog missing %s", want)
		}
	}
	if len(run0.Results) != 2 {
		t.Fatalf("want 2 results, got %d", len(run0.Results))
	}
	for _, r := range run0.Results {
		if r.RuleID != "PL001" && r.RuleID != "PL002" {
			t.Errorf("unexpected ruleId %s", r.RuleID)
		}
		if len(r.Locations) != 1 || r.Locations[0].PhysicalLocation.Region.StartLine == 0 {
			t.Errorf("result missing location: %+v", r)
		}
	}

	// File mode writes the same document to disk and keeps the listing
	// on stdout.
	sarifPath := filepath.Join(t.TempDir(), "out.sarif")
	out.Reset()
	errb.Reset()
	if code := run([]string{"-sarif", sarifPath, leaky}, &out, &errb); code != 1 {
		t.Fatalf("-sarif FILE: exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	raw, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"2.1.0"`)) {
		t.Errorf("SARIF file missing version: %s", raw)
	}
	if !strings.Contains(out.String(), "PL001") {
		t.Errorf("-sarif FILE should keep the stdout listing:\n%s", out.String())
	}

	// -json owns stdout; combining it with -sarif - is a usage error.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-json", "-sarif", "-", leaky}, &out, &errb); code != 2 {
		t.Errorf("-json with -sarif -: exit %d, want 2", code)
	}
}

// statsCounts parses the -stats block: the total line and every
// per-code line.
func statsCounts(t *testing.T, stderr string) (total int, byCode map[string]int) {
	t.Helper()
	byCode = map[string]int{}
	total = -1
	totalRe := regexp.MustCompile(`findings total\s+(\d+)`)
	codeRe := regexp.MustCompile(`findings (PL\d+)\s+(\d+)`)
	if m := totalRe.FindStringSubmatch(stderr); m != nil {
		total = atoi(t, m[1])
	}
	for _, m := range codeRe.FindAllStringSubmatch(stderr, -1) {
		byCode[m[1]] = atoi(t, m[2])
	}
	return total, byCode
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestStatsReconcile pins the counter contract: over the full corpus,
// the per-code stats sum to the total and both equal the number of
// findings actually emitted.
func TestStatsReconcile(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-stats", "-json", corpusDir}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	emitted := len(strings.Split(strings.TrimSpace(out.String()), "\n"))
	total, byCode := statsCounts(t, errb.String())
	sum := 0
	for _, n := range byCode {
		sum += n
	}
	if total != emitted || sum != emitted {
		t.Errorf("stats drift: total %d, per-code sum %d, emitted %d", total, sum, emitted)
	}
}

// TestStatsFlag checks -stats prints the self-diagnostic block to
// stderr without disturbing stdout findings.
func TestStatsFlag(t *testing.T) {
	var out, errb bytes.Buffer
	leaky := writeDir(t, "leaky.go", leakySrc)
	if code := run([]string{"-stats", leaky}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	se := errb.String()
	for _, want := range []string{"persistlint stats:", "functions analyzed", "cfg nodes built", "findings PL001"} {
		if !strings.Contains(se, want) {
			t.Errorf("-stats stderr missing %q:\n%s", want, se)
		}
	}
	if strings.Contains(out.String(), "stats") {
		t.Errorf("stats leaked to stdout:\n%s", out.String())
	}

	// Over the golden corpus the summary and seqlock counters are
	// live.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-stats", corpusDir}, &out, &errb); code != 1 {
		t.Fatalf("corpus -stats: exit %d, want 1", code)
	}
	se = errb.String()
	for _, want := range []string{"discharge summaries", "seqlock reads"} {
		if !strings.Contains(se, want) {
			t.Errorf("corpus -stats stderr missing %q:\n%s", want, se)
		}
		re := regexp.MustCompile(want + `\s+0\n`)
		if re.MatchString(se) {
			t.Errorf("corpus -stats counter %q is zero:\n%s", want, se)
		}
	}
}
