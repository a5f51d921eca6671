// Command ccltorture drives the concurrent crash-recovery torture
// harness (internal/torture) from the command line: seeded randomized
// workloads, power failures placed at randomized and adversarially
// chosen flush points, recovery, and the durable-prefix linearizability
// oracle after every crash.
//
// Default invocation — a five-minute soak at 8 threads, alternating
// ADR and eADR images, seeds advancing from -seed:
//
//	ccltorture
//
// A failing run writes a JSON artifact with the violating keys and the
// one-line command that replays the exact configuration:
//
//	ccltorture -seed 1234567 -threads 8 ...      # printed repro line
//	ccltorture -replay torture-seed1234567.json  # same thing, from the file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cclbtree/internal/torture"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccltorture", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "first workload/crash-plan seed; later runs increment it")
		duration = fs.Duration("duration", 5*time.Minute, "keep starting runs until this much wall time has passed (0 = exactly one run)")
		threads  = fs.Int("threads", 8, "concurrent workload goroutines")
		mode     = fs.String("mode", "both", "persistence domain: adr, eadr, or both (alternate)")
		gc       = fs.String("gc", "locality", "log reclamation under test: locality, naive, or off")
		shards   = fs.Int("shards", 1, "shard trees in the DB under test")
		rounds   = fs.Int("rounds", 6, "crash-recover rounds per run")
		ops      = fs.Int("ops", 500, "operations per thread per round")
		keys     = fs.Uint64("keys", 256, "key space size (small = high contention)")
		batch    = fs.Int("batch", 0, "group writes into ApplyBatch commits of this size (0/1 = per-op writes)")
		out      = fs.String("out", "torture-artifacts", "directory for failure artifacts")
		replay   = fs.String("replay", "", "re-run the configuration recorded in a failure artifact")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *replay != "" {
		a, err := torture.ReadArtifact(*replay)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "replaying %s: %s\n", *replay, a.ReproCmd)
		return oneRun(a.Config, *out, stdout, stderr)
	}

	var modes []bool // EADR per run, cycled
	switch *mode {
	case "adr":
		modes = []bool{false}
	case "eadr":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "ccltorture: unknown -mode %q\n", *mode)
		return 2
	}

	start := time.Now()
	runs := 0
	for {
		for _, eadr := range modes {
			cfg := torture.Config{
				Seed:         *seed + int64(runs),
				Threads:      *threads,
				Rounds:       *rounds,
				OpsPerThread: *ops,
				KeySpace:     *keys,
				EADR:         eadr,
				GC:           *gc,
				Shards:       *shards,
				BatchSize:    *batch,
			}
			if code := oneRun(cfg, *out, stdout, stderr); code != 0 {
				return code
			}
			runs++
		}
		if time.Since(start) >= *duration {
			break
		}
	}
	fmt.Fprintf(stdout, "ccltorture: %d run(s) clean in %v\n", runs, time.Since(start).Round(time.Millisecond))
	return 0
}

// oneRun executes one torture run and reports it; failures write the
// artifact and return exit code 1.
func oneRun(cfg torture.Config, outDir string, stdout, stderr io.Writer) int {
	res, err := torture.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "ccltorture: %v\n", err)
		return 2
	}
	domain := "ADR"
	if res.Config.EADR {
		domain = "eADR"
	}
	fmt.Fprintf(stdout, "seed %-8d %-4s %d rounds, %d crash(es), %d ops completed\n",
		res.Config.Seed, domain, len(res.Rounds), res.Crashes, res.OpsCompleted)
	if !res.Failed() {
		return 0
	}
	for _, v := range res.Violations {
		fmt.Fprintf(stderr, "  VIOLATION %s\n", v)
	}
	a := torture.NewArtifact(res)
	path, werr := a.Write(outDir)
	if werr != nil {
		fmt.Fprintf(stderr, "ccltorture: writing artifact: %v\n", werr)
	} else {
		fmt.Fprintf(stderr, "ccltorture: artifact %s\n", path)
	}
	fmt.Fprintf(stderr, "ccltorture: reproduce with: %s\n", a.ReproCmd)
	return 1
}
