package persist

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRE extracts the expectation comment and its quoted regexps:
//
//	t.Store(a, 1) // want "PL001" "second finding"
var (
	wantRE  = regexp.MustCompile(`//\s*want\s+(.*)$`)
	quoteRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

type wantEntry struct {
	re      *regexp.Regexp
	matched bool
}

// parseWants maps file line numbers to expected-finding regexps.
func parseWants(t *testing.T, path string) map[int][]*wantEntry {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int][]*wantEntry{}
	for i, line := range strings.Split(string(src), "\n") {
		m := wantRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, q := range quoteRE.FindAllStringSubmatch(m[1], -1) {
			re, err := regexp.Compile(q[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, q[1], err)
			}
			out[i+1] = append(out[i+1], &wantEntry{re: re})
		}
	}
	return out
}

// TestGolden analyzes every testdata file as one package (they share
// helper types, as real packages do) and checks the findings against
// the // want annotations, both directions: every finding must be
// expected and every expectation must fire.
func TestGolden(t *testing.T) {
	ents, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer()
	wants := map[string]map[int][]*wantEntry{}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join("testdata", e.Name())
		if err := an.AddFile(path, nil); err != nil {
			t.Fatal(err)
		}
		wants[path] = parseWants(t, path)
	}
	if len(wants) == 0 {
		t.Fatal("no testdata files")
	}

	for _, f := range an.Run() {
		text := f.Code + " " + f.Msg
		entries := wants[f.Pos.Filename][f.Pos.Line]
		matched := false
		for _, w := range entries {
			if !w.matched && w.re.MatchString(text) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s:%d: %s", f.Pos.Filename, f.Pos.Line, text)
		}
	}
	for path, byLine := range wants {
		for line, entries := range byLine {
			for _, w := range entries {
				if !w.matched {
					t.Errorf("%s:%d: expected finding matching %q, got none", path, line, w.re)
				}
			}
		}
	}
}

// loadCorpus runs the analyzer over every testdata file and returns the
// finding count per code.
func loadCorpus(t *testing.T) map[string]int {
	t.Helper()
	ents, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer()
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		if err := an.AddFile(filepath.Join("testdata", e.Name()), nil); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for _, f := range an.Run() {
		counts[f.Code]++
	}
	return counts
}

// TestRuleToggles proves that the golden corpus exercises every rule,
// so TestGolden would fail if a rule broke. PL000 is the reasonless
// directive, which a want annotation cannot share a line with;
// TestDirectiveWithoutReason covers it.
func TestRuleToggles(t *testing.T) {
	baseline := loadCorpus(t)
	for code := range RuleTitles() {
		if code != CodeBadDirective && baseline[code] == 0 {
			t.Errorf("the corpus yields no %s findings; the golden test no longer guards the rule", code)
		}
	}
}

// TestGoldenDeterminism renders the full corpus findings twice from
// fresh analyzers and demands byte-identical output: map iteration
// anywhere in the pipeline would show up here.
func TestGoldenDeterminism(t *testing.T) {
	render := func() string {
		ents, err := os.ReadDir("testdata")
		if err != nil {
			t.Fatal(err)
		}
		an := NewAnalyzer()
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			if err := an.AddFile(filepath.Join("testdata", e.Name()), nil); err != nil {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		for _, f := range an.Run() {
			b.WriteString(f.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	first := render()
	if first == "" {
		t.Fatal("corpus rendered no findings")
	}
	for i := 1; i < 3; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// TestLinearAnalysisMissesEarlyReturn documents why the analyzer is
// CFG-based. The pre-CFG implementation ordered a function's thread-API
// calls by source position and discharged a Store if ANY later
// Flush/Persist on the same thread existed. That rule is blind to
// control flow: in
//
//	t.Store(a, 1)
//	if full { return } // the store escapes unpersisted here
//	t.Persist(a, 8)
//
// the Persist sits later in the source, so the linear rule stays
// silent — yet the early-return path leaks the store. This test
// reimplements the linear rule in miniature, confirms it misses the
// case, and confirms the CFG dataflow catches it.
func TestLinearAnalysisMissesEarlyReturn(t *testing.T) {
	const fn = "earlyReturnLeavesStoreOpen"
	path := filepath.Join("testdata", "cfgpaths.go")

	// The retired linear rule: position order, any later discharge wins.
	linearLeaks := func() int {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fn {
				continue
			}
			type tcall struct{ key, method string }
			var calls []tcall
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok {
							calls = append(calls, tcall{id.Name, sel.Sel.Name})
						}
					}
				}
				return true
			})
			leaks := 0
			for i, c := range calls {
				if c.method != "Store" {
					continue
				}
				covered := false
				for _, later := range calls[i+1:] {
					if later.key == c.key && (later.method == "Flush" || later.method == "Persist") {
						covered = true
						break
					}
				}
				if !covered {
					leaks++
				}
			}
			return leaks
		}
		t.Fatalf("function %s not found in %s", fn, path)
		return -1
	}

	if got := linearLeaks(); got != 0 {
		t.Fatalf("premise broken: the linear rule now flags %d leak(s) in %s", got, fn)
	}

	an := NewAnalyzer()
	if err := an.AddFile(path, nil); err != nil {
		t.Fatal(err)
	}
	for _, f := range an.Run() {
		if f.Code == CodeStoreNoPersist && f.Func == fn {
			return // the CFG analysis sees the early-return path
		}
	}
	t.Fatalf("CFG analysis did not flag %s", fn)
}

// TestStats checks the self-diagnostic counters a -stats run prints:
// an analysis that parsed files and built CFGs must say so.
func TestStats(t *testing.T) {
	an := NewAnalyzer()
	for _, name := range []string{"cfgpaths.go", "summaries.go", "seqlockread.go"} {
		if err := an.AddFile(filepath.Join("testdata", name), nil); err != nil {
			t.Fatal(err)
		}
	}
	an.Run()
	s := an.Stats()
	if s.Files != 3 {
		t.Errorf("Files = %d, want 3", s.Files)
	}
	if s.Functions == 0 || s.CFGNodes == 0 {
		t.Errorf("Functions = %d, CFGNodes = %d, want both > 0", s.Functions, s.CFGNodes)
	}
	if s.DischargeSummaries == 0 {
		t.Errorf("DischargeSummaries = 0, want > 0 (summaries.go defines helpers)")
	}
	if s.SeqlockReads == 0 {
		t.Errorf("SeqlockReads = 0, want > 0 (seqlockread.go reads seqlocks)")
	}
}

// TestDirectiveWithoutReason checks that a reasonless ignore neither
// suppresses nor passes silently: the original finding stays and a
// PL000 defect is reported at the directive.
func TestDirectiveWithoutReason(t *testing.T) {
	src := `package p

import "cclbtree/internal/pmem"

func f(t *pmem.Thread, a pmem.Addr) {
	//persistlint:ignore PL001
	t.Store(a, 1)
}
`
	an := NewAnalyzer()
	if err := an.AddFile("reasonless.go", []byte(src)); err != nil {
		t.Fatal(err)
	}
	findings := an.Run()
	var codes []string
	for _, f := range findings {
		codes = append(codes, f.Code)
	}
	got := strings.Join(codes, ",")
	if !strings.Contains(got, CodeBadDirective) || !strings.Contains(got, CodeStoreNoPersist) {
		t.Fatalf("want PL000 and PL001, got %v", findings)
	}
}

// TestFindingString pins the human-readable output shape the CLI
// prints (file:line:col: [CODE] message (in func)).
func TestFindingString(t *testing.T) {
	src := `package p

import "cclbtree/internal/pmem"

func leak(t *pmem.Thread, a pmem.Addr) {
	t.Store(a, 1)
}
`
	an := NewAnalyzer()
	if err := an.AddFile("x.go", []byte(src)); err != nil {
		t.Fatal(err)
	}
	fs := an.Run()
	if len(fs) != 1 {
		t.Fatalf("want 1 finding, got %v", fs)
	}
	s := fs[0].String()
	want := fmt.Sprintf("x.go:6:2: [%s]", CodeStoreNoPersist)
	if !strings.HasPrefix(s, want) || !strings.HasSuffix(s, "(in leak)") {
		t.Fatalf("finding rendered as %q, want prefix %q and func suffix", s, want)
	}
}
