package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one run of one workload. The last line of
// standard output is its result line; --out saves all of it for
// -compare.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Repeats holds each end-to-end metric's value on every repeat, so
	// that a reader can see the spread behind the reported value.
	Repeats map[string][]float64 `json:"repeats,omitempty"`
	// NoisePct is the distance from the reported value to the median
	// repeat (for a metric that reports the median: between the
	// repeats' quartiles), as a percentage of the median. A metric
	// whose noise exceeds its bound is listed in Noisy: a comparison on
	// it is unresolved, not unchanged.
	NoisePct map[string]float64 `json:"noise_pct,omitempty"`
	Noisy    []string           `json:"noisy,omitempty"`
}

// resultLine is the contract with the driver: exactly these keys.
type resultLineJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine is the last line of standard output: the metrics that
// BENCHMARK.json declares for this mode, and no others.
func (r *report) resultLine() string {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	declared := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		declared[d.Name] = r.Metrics[d.Name]
	}
	b, err := json.Marshal(resultLineJSON{r.Correct, r.Attempted, r.Failed, declared})
	if err != nil {
		panic(err) // a map of floats and strings; NaN is excluded by setMetrics
	}
	return string(b)
}

// setMetrics stores one value per declared metric. A computed name that
// is not declared is a bug in the benchmark, as is a value that is not
// a number.
func (r *report) setMetrics(defs []metricDef, v values) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	for name, x := range v {
		if !declared(defs, name) {
			return fmt.Errorf("metric %q is computed but not declared", name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %q is %v", name, x)
		}
	}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	return nil
}

// aggregate reduces the repeats of each measured metric to the reported
// value: best repeat for the wall-clock speeds, median otherwise.
func (r *report) aggregate(perRepeat []values) error {
	r.Repeats = map[string][]float64{}
	r.NoisePct = map[string]float64{}
	out := values{}
	for _, d := range measured {
		xs := make([]float64, len(perRepeat))
		for i, v := range perRepeat {
			xs[i] = v[d.Name]
		}
		r.Repeats[d.Name] = xs
		mid := median(xs)
		x := mid
		if d.best {
			x = slices.Min(xs)
			if d.Better == "higher" {
				x = slices.Max(xs)
			}
		}
		out[d.Name] = x
		spread := math.Abs(x - mid)
		if !d.best { // a median has no distance to itself: use the quartiles'
			sorted := slices.Sorted(slices.Values(xs))
			spread = quantile(sorted, 0.75) - quantile(sorted, 0.25)
		}
		r.NoisePct[d.Name] = 100 * ratio(spread, mid)
		if r.NoisePct[d.Name] > 100*d.Bound {
			r.Noisy = append(r.Noisy, d.Name)
		}
	}
	return r.setMetrics(measured, out)
}

// print writes the human-readable table: every metric by name with its
// value, unit and clock, and the per-repeat values where there are any.
func (r *report) print(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "\n%s  seed=%d seconds=%d trace=%v  attempted=%d failed=%d error_rate=%g\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	fmt.Fprintf(w, "  %-34s %14s %-6s %-5s %s\n", "metric", "value", "unit", "clock", "repeats (noise)")
	for _, d := range defs {
		line := fmt.Sprintf("  %-34s %14.6g %-6s %-5s", d.Name, r.Metrics[d.Name].Value, d.Unit, d.Clock)
		if xs, ok := r.Repeats[d.Name]; ok {
			parts := make([]string, len(xs))
			for i, x := range xs {
				parts[i] = fmt.Sprintf("%.5g", x)
			}
			line += fmt.Sprintf(" %s (%.1f%%)", strings.Join(parts, " "), r.NoisePct[d.Name])
			if slices.Contains(r.Noisy, d.Name) {
				line += " noisy"
			}
		}
		fmt.Fprintln(w, line)
	}
}

func (l *ladder) print(w io.Writer) {
	fmt.Fprintf(w, "\nlayer ladder (per op; a layer's self cost is its rung minus the rung below)\n")
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %10s %12s\n", "rung", "ops", "host ns", "model ns", "allocs", "media B")
	for _, r := range l.rungs {
		fmt.Fprintf(w, "  %-28s %8d %12.1f %12.1f %10.3f %12.1f\n", r.name, r.ops, r.wallNS, r.modelNS, r.allocs, r.mediaBytes)
	}
	fmt.Fprintf(w, "  two goroutines on two Threads persist %.2f times as fast as one (pmem.persist16_scale_2g)\n", l.scale2g)
}
