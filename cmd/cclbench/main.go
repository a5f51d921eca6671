// Command cclbench regenerates the tables and figures of the CCL-BTree
// paper's evaluation (EuroSys '24, §5) on the software PM model.
//
// Usage:
//
//	cclbench -list                 # show available experiments
//	cclbench -exp fig3             # run one experiment
//	cclbench -exp all              # run everything
//	cclbench -exp fig10 -warm 500000 -ops 500000 -threads 1,24,48,96
//
// Sizes default to ≈1/500 of the paper's (which used 50 M warm keys and
// 50 M operations on real Optane hardware); throughput numbers are
// simulated-time and meant for shape comparison, not absolute match.
//
// Regressions are judged by the repository benchmark (BENCHMARK.json,
// benchmark/run.sh -compare), not here.
//
// On SIGINT/SIGTERM the in-progress report is written as a partial
// BENCH_<exp>.json and the -trace ring (if any) is flushed before
// exiting 130, so an interrupted run still leaves its evidence behind.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cclbtree/internal/bench"
	"cclbtree/internal/obs"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		exp      = flag.String("exp", "", "experiment to run (or 'all')")
		warm     = flag.Int("warm", 0, "warm keys (0 = default)")
		ops      = flag.Int("ops", 0, "measured operations (0 = default)")
		threads  = flag.String("threads", "", "comma-separated thread sweep")
		mainThr  = flag.Int("mainthreads", 0, "thread count for single-point experiments")
		scanLen  = flag.Int("scanlen", 0, "default range query length")
		seed     = flag.Int64("seed", 0, "workload seed")
		out      = flag.String("out", ".", "directory for BENCH_<exp>.json records (\"\" disables)")
		httpOn   = flag.String("http", "", "serve live observation JSON on this address (e.g. :7071)")
		traceOut = flag.String("trace", "", "write a Chrome trace_event dump of profiled runs to this file")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-16s %s\n", e.Name, e.Desc)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <name> or -exp all")
		}
		return
	}

	scale := bench.Scale{Warm: *warm, Ops: *ops, MainThreads: *mainThr, ScanLen: *scanLen, Seed: *seed}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "bad -threads value %q\n", part)
				os.Exit(2)
			}
			scale.Threads = append(scale.Threads, n)
		}
	}

	var tracer *obs.Tracer
	flushTrace := func() {}
	if *traceOut != "" {
		tracer = obs.NewTracer(1 << 16)
		tracer.Enable()
		scale.Tracer = tracer
		flushTrace = func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				return
			}
			defer f.Close()
			if err := tracer.WriteChromeTrace(f); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				return
			}
			fmt.Printf("[wrote trace %s]\n", *traceOut)
		}
	}

	var selected []bench.Experiment
	if *exp == "all" {
		selected = bench.All()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			e, ok := bench.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", name)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if *httpOn != "" {
		// Live observation endpoint: the currently measured pool's
		// counters as JSON (503 between runs). cclstat -attach polls it.
		go func() {
			mux := http.NewServeMux()
			mux.Handle("/", obs.Handler())
			if err := http.ListenAndServe(*httpOn, mux); err != nil {
				fmt.Fprintf(os.Stderr, "http listener: %v\n", err)
			}
		}()
		fmt.Printf("serving live observation on %s\n", *httpOn)
	}

	// Interrupted runs still persist their evidence: the phases recorded
	// so far as a partial report, plus whatever the trace ring holds.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "\ninterrupted (%v), writing partial results\n", s)
		if rep := bench.SnapshotReport(); rep != nil && *out != "" {
			rep.Partial = true
			rep.Err = fmt.Sprintf("interrupted: %v", s)
			if path, err := rep.WriteFile(*out); err != nil {
				fmt.Fprintf(os.Stderr, "partial report: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "[wrote partial %s: %d phases]\n", path, len(rep.Phases))
			}
		}
		flushTrace()
		os.Exit(130)
	}()

	for _, e := range selected {
		start := time.Now()
		bench.StartReport(e.Name)
		tabs, err := runExperiment(e, scale)
		rep := bench.FinishReport()
		if err != nil {
			rep.Partial = true
			rep.Err = err.Error()
		}
		if *out != "" {
			if path, werr := rep.WriteFile(*out); werr != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, werr)
			} else {
				fmt.Printf("[wrote %s: %d phases]\n", path, len(rep.Phases))
			}
		}
		if err != nil {
			// An experiment died: print whatever phases completed so the
			// run is not a total loss, then fail the process.
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.Name, err)
			if len(rep.Phases) > 0 {
				fmt.Fprintf(os.Stderr, "partial results (%d phases):\n", len(rep.Phases))
				for _, p := range rep.Phases {
					fmt.Fprintf(os.Stderr, "  %-28s %8.2f Mop/s  WA %.2f\n",
						p.Phase, p.MopsPerSec, p.WAFactor)
				}
			}
			os.Exit(1)
		}
		for _, t := range tabs {
			t.Fprint(os.Stdout)
		}
		fmt.Printf("[%s finished in %.1fs wall]\n\n", e.Name, time.Since(start).Seconds())
	}
	flushTrace()
}

// runExperiment runs one experiment, converting a panic into an error
// so the caller can still emit the phases recorded before the crash.
func runExperiment(e bench.Experiment, scale bench.Scale) (tabs []*bench.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return e.Run(scale)
}
