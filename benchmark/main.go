// Command benchmark is the repository's regression benchmark: four
// workloads against the public entry points, every number labelled
// with its clock (host or model), every output verified. See README.md
// in this directory and BENCHMARK.json at the repository root.
//
//	sh benchmark/run.sh --workload ingest --seed 1 --seconds 6 --trace 0
//	sh benchmark/run.sh --workload all --seed 1 --out a.json
//	sh benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// options are one invocation's arguments.
type options struct {
	seed    int64
	seconds int
	trace   bool
	// scale shrinks every workload. It is 1 on every run from the
	// command line; only the smoke tests, at 1/100, set it.
	scale float64
	// traceDir receives trace-<workload>.json from a traced run.
	traceDir string
}

func main() {
	o := options{scale: 1, traceDir: filepath.Join("benchmark", "out")}
	workload := flag.String("workload", "all", "ingest, lookup, mixed, served, or all (repeats interleaved across the four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generator: key set, op order, op mix")
	flag.IntVar(&o.seconds, "seconds", 6, "measured seconds per run on the 2-core reference runner (sizes the fixed op counts)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run and layer ladder, per-layer metrics")
	out := flag.String("out", "", "also save the full reports (per-repeat values, noise) as JSON, for -compare")
	compare := flag.Bool("compare", false, "compare two saved report files: -compare a.json b.json")
	flag.Parse()
	o.trace = *trace != 0

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare a.json b.json")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || o.seconds < 1 {
		fatal(2, "usage: --workload <name> --seed <n> --seconds <n> --trace <0|1>")
	}
	// One OS thread per core, never more than four: the workloads are
	// sized for the 2-core runner and their goroutines are clients of an
	// embedded library, not a thread pool to be widened.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	reports, err := run(os.Stdout, names, o)
	if err != nil {
		fatal(1, "%v", err)
	}
	ok := true
	for _, r := range reports {
		ok = ok && r.Correct
		fmt.Println(r.resultLine())
	}
	if *out != "" {
		data, err := json.MarshalIndent(reports, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fatal(1, "%v", err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// run generates the named workloads' inputs from the seed, runs them,
// and writes the human-readable tables to w: one report per workload.
func run(w io.Writer, names []string, o options) ([]*report, error) {
	plans := make([]*plan, len(names))
	reports := make([]*report, len(names))
	for i, name := range names {
		pl, err := buildPlan(name, o.seed, o.seconds, o.scale)
		if err != nil {
			return nil, err
		}
		plans[i] = pl
		reports[i] = &report{Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	}
	if o.trace {
		for i, r := range reports {
			if err := r.runTraced(w, plans[i], o); err != nil {
				return nil, fmt.Errorf("%s: %w", r.Workload, err)
			}
			debug.FreeOSMemory()
		}
	} else if err := runUntraced(w, plans, reports, o); err != nil {
		return nil, err
	}
	for _, r := range reports {
		r.Correct = r.Failed == 0
	}
	return reports, nil
}

func (r *report) count(res *repeatResult) {
	r.Attempted += res.attempted()
	r.Failed += res.failed
}

// warmUp runs the workload once at 1/16 of its size and discards its
// timings (its checks still count). Besides the code paths it warms
// the heap: the 512 MB modeled device it leaves behind is what the
// first real repeat's pool is carved from, as every later repeat's is
// carved from its predecessor's, so all repeats start alike — without
// it the first repeat alone takes its page faults inside the measured
// phase and runs a quarter slower.
func (r *report) warmUp(o options) error {
	pl, err := buildPlan(r.Workload, o.seed, o.seconds, o.scale/16)
	if err != nil {
		return err
	}
	res, err := pl.repeat(repeatOpts{})
	if err != nil {
		return err
	}
	r.count(res)
	return nil
}

// runUntraced produces the end-to-end metrics, tracing off: after one
// discarded warm-up each, every workload runs from scratch `repeats`
// times — `repeatsAll` times when there are several, which then take
// turns (ingest, lookup, mixed, served, ingest, …), so that a noisy
// interval on the runner lands on one repeat of every workload and not
// on all repeats of one.
func runUntraced(w io.Writer, plans []*plan, reports []*report, o options) error {
	rounds := repeats
	if len(plans) > 1 {
		rounds = repeatsAll
	}
	for _, r := range reports {
		if err := r.warmUp(o); err != nil {
			return fmt.Errorf("%s: %w", r.Workload, err)
		}
	}
	perRepeat := make([][]values, len(plans))
	phases := make([][4]float64, len(plans))
	for range rounds {
		for i, pl := range plans {
			res, err := pl.repeat(repeatOpts{})
			if err != nil {
				return fmt.Errorf("%s: %w", pl.name, err)
			}
			reports[i].count(res)
			perRepeat[i] = append(perRepeat[i], res.measured())
			for j, s := range []float64{res.setupS - pl.genS, res.measureS, res.recoverS, res.verifyS} {
				phases[i][j] += s
			}
		}
	}
	for i, r := range reports {
		if err := r.aggregate(perRepeat[i]); err != nil {
			return err
		}
		r.print(w, measured)
		fmt.Fprintf(w, "  phases, all repeats: set-up %.2f s, measured %.2f s, recovery %.2f s, read-back %.2f s; generation %.2f s\n",
			phases[i][0], phases[i][1], phases[i][2], phases[i][3], plans[i].genS)
	}
	return nil
}

// runTraced produces the per-layer metrics. The workload runs four
// times: untraced, with the tree's own telemetry (Config.Metrics),
// with telemetry plus harness spans, untraced again. Counter deltas
// come from the better untraced repeat and the overheads are measured
// against it. Then the layer ladder runs on the head of the stream.
func (r *report) runTraced(w io.Writer, pl *plan, o options) error {
	if err := r.warmUp(o); err != nil {
		return err
	}
	variants := []repeatOpts{{}, {metrics: true}, {metrics: true, spans: true}, {}}
	results := make([]*repeatResult, len(variants))
	for i, opts := range variants {
		res, err := pl.repeat(opts)
		if err != nil {
			return err
		}
		r.count(res)
		results[i] = res
	}
	base, other, withMetrics, traced := results[0], results[3], results[1], results[2]
	if other.wallKops() > base.wallKops() {
		base, other = other, base
	}
	path, err := writeTrace(o.traceDir, pl, o.seed, traced)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%s: %d spans in %s\n", pl.name, len(traced.trace.phases)+traced.ops, path)

	lad, err := runLadder(pl, ladderOps(o))
	if err != nil {
		return err
	}
	r.Attempted += lad.tried
	r.Failed += lad.failed

	v := base.layerCounts()
	maps.Copy(v, segmentShares(withMetrics.profile, pl.puts() > 0))
	maps.Copy(v, traced.spanPercentiles())
	maps.Copy(v, lad.values())
	mid := (base.wallKops() + other.wallKops()) / 2
	v["bench.wall_kops_median"] = mid
	v["bench.noise_pct"] = 100 * (base.wallKops() - mid) / mid
	v["obs.metrics_overhead_pct"] = 100 * (base.wallKops() - withMetrics.wallKops()) / base.wallKops()
	v["bench.trace_overhead_pct"] = 100 * (base.wallKops() - traced.wallKops()) / base.wallKops()
	v["workload.keygen_wall_ns"] = pl.genS * 1e9 / float64(len(pl.preload)+pl.ops()+len(pl.final))
	if err := r.setMetrics(perLayer, v); err != nil {
		return err
	}
	r.print(w, perLayer)
	lad.print(w)
	return nil
}
