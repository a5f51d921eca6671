// Command persistlint statically checks the repository's persistent
// memory discipline (see internal/analysis/persist): every PM store
// must be flushed and fenced on every path to return, flushes must be
// fenced, and seqlock readers must re-check on every path. Lock order
// and PushScope/PopScope balance are checked where they run instead,
// by internal/core under pmem.Config.StrictPersist.
//
// Usage:
//
//	persistlint [-json] [-sarif FILE] [-tests] [-stats] [-budget DURATION] [packages...]
//
// Package patterns are directories; a trailing /... recurses. With no
// arguments it checks ./... from the current directory. Exit status is
// 0 when no findings, 1 when findings were reported, 2 on usage or
// parse errors — or when -budget is exceeded. -stats prints analysis
// self-diagnostics (functions, CFG nodes, call graph, summaries,
// per-rule counts) to stderr. -sarif writes SARIF 2.1.0 to FILE ("-"
// replaces the default stdout listing).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cclbtree/internal/analysis/persist"
)

// jsonFinding is the -json wire form: one object per line, keyed for
// stable diffing between runs.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Code    string `json:"code"`
	Func    string `json:"func"`
	Message string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body: parses flags, analyzes, prints, and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("persistlint", flag.ContinueOnError)
	fl.SetOutput(stderr)
	jsonOut := fl.Bool("json", false, "emit one JSON object per finding (stable across PRs for CI diffing)")
	sarif := fl.String("sarif", "", "write findings as SARIF 2.1.0 to this file (\"-\" emits SARIF to stdout instead of the default listing)")
	withTest := fl.Bool("tests", false, "also analyze _test.go files")
	stats := fl.Bool("stats", false, "print analysis self-diagnostics to stderr")
	budget := fl.Duration("budget", 0, "fail (exit 2) when parsing+analysis wall-clock exceeds this duration; 0 disables the gate")
	fl.Usage = func() {
		fmt.Fprintf(stderr, "usage: persistlint [-json] [-sarif FILE] [-tests] [-stats] [-budget DURATION] [packages...]\n")
		fl.PrintDefaults()
	}
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarif == "-" {
		fmt.Fprintf(stderr, "persistlint: -json and -sarif - both claim stdout\n")
		return 2
	}
	patterns := fl.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	dirs, err := resolve(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "persistlint: %v\n", err)
		return 2
	}

	start := time.Now()
	an := persist.NewAnalyzer()
	for _, d := range dirs {
		if err := an.AddDir(d, *withTest); err != nil {
			fmt.Fprintf(stderr, "persistlint: %v\n", err)
			return 2
		}
	}
	findings := an.Run()
	st := an.Stats()
	elapsed := time.Since(start)
	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		for _, f := range findings {
			_ = enc.Encode(jsonFinding{
				File:    filepath.ToSlash(f.Pos.Filename),
				Line:    f.Pos.Line,
				Col:     f.Pos.Column,
				Code:    f.Code,
				Func:    f.Func,
				Message: f.Msg,
			})
		}
	case *sarif == "-":
		if err := writeSARIF(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "persistlint: %v\n", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if *sarif != "" && *sarif != "-" {
		var buf strings.Builder
		serr := writeSARIF(&buf, findings)
		if serr == nil {
			serr = os.WriteFile(*sarif, []byte(buf.String()), 0o644)
		}
		if serr != nil {
			fmt.Fprintf(stderr, "persistlint: -sarif: %v\n", serr)
			return 2
		}
	}
	if *stats {
		printStats(stderr, st)
	}
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(stderr, "persistlint: analysis took %v, over the %v budget\n", elapsed.Round(time.Millisecond), *budget)
		return 2
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "persistlint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// printStats emits the self-diagnostic block: CI logs should show what
// the analysis covered, not just its silence. Per-rule counts come
// from Stats.FindingsByCode, which Run fills from the findings it
// actually returned — the totals here reconcile with the emitted
// listing by construction.
func printStats(w io.Writer, s persist.Stats) {
	fmt.Fprintf(w, "persistlint stats:\n")
	fmt.Fprintf(w, "  files analyzed      %6d\n", s.Files)
	fmt.Fprintf(w, "  functions analyzed  %6d\n", s.Functions)
	fmt.Fprintf(w, "  cfg nodes built     %6d\n", s.CFGNodes)
	fmt.Fprintf(w, "  call graph nodes    %6d\n", s.CallNodes)
	fmt.Fprintf(w, "  call graph edges    %6d\n", s.CallEdges)
	fmt.Fprintf(w, "  call graph sccs     %6d\n", s.CallSCCs)
	fmt.Fprintf(w, "  discharge summaries %6d\n", s.DischargeSummaries)
	fmt.Fprintf(w, "  seqlock reads       %6d\n", s.SeqlockReads)
	fmt.Fprintf(w, "  findings total      %6d\n", s.Findings)
	codes := make([]string, 0, len(s.FindingsByCode))
	for c := range s.FindingsByCode {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "  findings %s      %6d\n", c, s.FindingsByCode[c])
	}
}

// resolve expands package patterns into a deduplicated directory list.
// Directories named testdata or vendor, and hidden directories, are
// skipped during recursion (matching the go tool's conventions).
func resolve(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	for _, p := range patterns {
		if root, ok := strings.CutSuffix(p, "/..."); ok {
			if root == "" || root == "." {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("%s is not a directory", p)
		}
		add(p)
	}
	return out, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}
