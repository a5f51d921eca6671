// Command cclstat is the observability front end: an ipmctl-style view
// of the software PM device model's counters.
//
// Two modes:
//
//	cclstat --replay BENCH_fig3.json     # render a recorded bench run
//	cclstat -attach http://:7071/        # live TUI against cclbench -http
//
// Replay mode prints each recorded phase (throughput, tail latency,
// amplification factors) and a per-scope media-byte bar chart showing
// which component — leaf buffers, the WAL, GC, splits, recovery — is
// responsible for the media traffic. Attach mode polls the live
// observation endpoint and redraws the same breakdown in place.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"cclbtree/internal/obs"
)

func main() {
	var (
		replay   = flag.String("replay", "", "render a recorded BENCH_<name>.json")
		attach   = flag.String("attach", "", "poll a live observation URL (cclbench -http)")
		interval = flag.Duration("interval", time.Second, "attach-mode poll interval")
		once     = flag.Bool("once", false, "attach mode: fetch and render a single frame")
	)
	flag.Parse()

	switch {
	case *replay != "":
		rep, err := obs.ReadBenchReport(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		renderReport(os.Stdout, rep)
	case *attach != "":
		if err := attachLoop(*attach, *interval, *once); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// renderReport prints a recorded run: the per-phase table, then the
// aggregate per-scope breakdown.
func renderReport(w io.Writer, rep *obs.BenchReport) {
	fmt.Fprintf(w, "# %s", rep.Name)
	if rep.Partial {
		fmt.Fprintf(w, "  [PARTIAL: %s]", firstLine(rep.Err))
	}
	fmt.Fprintln(w)
	if len(rep.Phases) == 0 {
		fmt.Fprintln(w, "(no phases recorded)")
		return
	}

	fmt.Fprintf(w, "%-28s %10s %10s %10s %7s %7s %7s\n",
		"phase", "Mop/s", "p50(ns)", "p99(ns)", "WA", "CLI", "hit%")
	for _, p := range rep.Phases {
		p50, p99 := "-", "-"
		if p.P50Nanos > 0 {
			p50 = fmt.Sprintf("%d", p.P50Nanos)
			p99 = fmt.Sprintf("%d", p.P99Nanos)
		}
		fmt.Fprintf(w, "%-28s %10.2f %10s %10s %7.2f %7.2f %6.1f%%\n",
			p.Phase, p.MopsPerSec, p50, p99, p.WAFactor, p.CLIFactor, 100*p.XPBufHitRate)
	}

	total := map[string]uint64{}
	var media uint64
	for _, p := range rep.Phases {
		for sc, v := range p.ScopeMediaBytes {
			total[sc] += v
		}
		media += p.MediaWriteBytes
	}
	fmt.Fprintf(w, "\nmedia writes by scope (%s total):\n", fmtBytes(media))
	renderBars(w, total, media)

	// Contention/heat tier: render the last phase that carried a
	// profile (profiles are cumulative since index creation, so the
	// last one subsumes the earlier ones for a single-index run).
	for i := len(rep.Phases) - 1; i >= 0; i-- {
		if p := rep.Phases[i].Profile; p != nil {
			fmt.Fprintf(w, "\nprofile (phase %s):\n", rep.Phases[i].Phase)
			renderProfile(w, p)
			break
		}
	}
}

// renderProfile draws the second obs tier — lock contention, critical-
// path segments, hot leaves — shared by replay and attach modes.
func renderProfile(w io.Writer, p *obs.Profile) {
	if len(p.Locks) > 0 {
		fmt.Fprintf(w, "\nlock contention (wall ns, sampled):\n")
		fmt.Fprintf(w, "  %-12s %12s %10s %9s %9s %9s %9s\n",
			"class", "acquisitions", "contended", "wait p50", "wait p99", "wait max", "hold p99")
		for _, ls := range p.Locks {
			fmt.Fprintf(w, "  %-12s %12d %10d %9d %9d %9d %9d\n",
				ls.Class, ls.Acquisitions, ls.Contended,
				ls.WaitP50NS, ls.WaitP99NS, ls.WaitMaxNS, ls.HoldP99NS)
		}
	}
	if len(p.Segments) > 0 {
		opSum := map[string]uint64{}
		for _, sg := range p.Segments {
			opSum[sg.Op] += sg.SumNS
		}
		fmt.Fprintf(w, "\ncritical-path segments (virtual ns):\n")
		fmt.Fprintf(w, "  %-6s %-9s %9s %8s %8s %8s %7s\n",
			"op", "segment", "count", "p50", "p99", "p999", "share")
		for _, sg := range p.Segments {
			share := 0.0
			if t := opSum[sg.Op]; t > 0 {
				share = 100 * float64(sg.SumNS) / float64(t)
			}
			fmt.Fprintf(w, "  %-6s %-9s %9d %8d %8d %8d %6.1f%%\n",
				sg.Op, sg.Segment, sg.Count, sg.P50NS, sg.P99NS, sg.P999NS, share)
		}
	}
	if len(p.HotLeaves) > 0 {
		fmt.Fprintf(w, "\nhot leaves (epoch %d, %d dropped):\n", p.HeatEpoch, p.HeatDropped)
		max := p.HotLeaves[0].Score
		const width = 24
		for _, e := range p.HotLeaves {
			n := 0
			if max > 0 {
				n = int(float64(e.Score) / float64(max) * width)
			}
			if n == 0 && e.Score > 0 {
				n = 1
			}
			fmt.Fprintf(w, "  %#16x %s%s %8d  (r %d / w %d)\n",
				e.Leaf, strings.Repeat("█", n), strings.Repeat("·", width-n),
				e.Score, e.Reads, e.Writes)
		}
	}
}

// maxAttachFailures bounds attach mode's reconnection attempts: the
// endpoint restarting mid-session (cclbench re-exec'd, port briefly
// down) is survivable, but a dead endpoint should not keep a terminal
// spinning forever.
const maxAttachFailures = 20

// attachLoop polls the live endpoint and redraws one frame per tick.
// Fetch failures switch to a bounded reconnection loop: a visible
// "reconnecting" status line, exponential backoff capped at 8× the poll
// interval, and a hard stop after maxAttachFailures consecutive
// failures. Any successful fetch resets the budget, so an endpoint that
// restarts mid-session (new cclbench run on the same port) is picked
// up where it left off.
func attachLoop(url string, interval time.Duration, once bool) error {
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	client := &http.Client{Timeout: 5 * time.Second}
	first := true
	failures := 0
	for {
		o, err := fetchObservation(client, url)
		switch {
		case err != nil && once:
			return err
		case err != nil:
			failures++
			if failures >= maxAttachFailures {
				fmt.Println()
				return fmt.Errorf("giving up after %d consecutive failures: %v", failures, err)
			}
			backoff := interval << min(failures-1, 3)
			fmt.Printf("\r\x1b[K[reconnecting to %s: attempt %d/%d, retry in %s — %v]",
				url, failures, maxAttachFailures, backoff, err)
			time.Sleep(backoff)
			continue
		default:
			if failures > 0 {
				// Back after an outage: clear the status line and force a
				// full redraw (the endpoint may be a brand-new run).
				fmt.Print("\r\x1b[K")
				first = true
				failures = 0
			}
			if !first {
				// Redraw in place: home the cursor and clear below.
				fmt.Print("\x1b[H\x1b[J")
			} else if !once {
				fmt.Print("\x1b[2J\x1b[H")
			}
			renderObservation(os.Stdout, url, o)
			first = false
		}
		if once {
			return nil
		}
		time.Sleep(interval)
	}
}

func fetchObservation(client *http.Client, url string) (*obs.Observation, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("endpoint: %s", resp.Status)
	}
	var o obs.Observation
	if err := json.NewDecoder(resp.Body).Decode(&o); err != nil {
		return nil, err
	}
	return &o, nil
}

// renderObservation draws one live frame.
func renderObservation(w io.Writer, url string, o *obs.Observation) {
	fmt.Fprintf(w, "cclstat — %s — %s\n\n", url, time.Now().Format("15:04:05"))
	fmt.Fprintf(w, "  media writes   %12s      WA factor   %6.2f\n",
		fmtBytes(o.MediaWriteBytes), o.WAFactor)
	fmt.Fprintf(w, "  xpbuf writes   %12s      CLI factor  %6.2f\n",
		fmtBytes(o.XPBufWriteBytes), o.CLIFactor)
	fmt.Fprintf(w, "  user payload   %12s      xpbuf hit   %5.1f%%\n",
		fmtBytes(o.UserBytes), 100*o.XPBufWriteHitRate)
	fmt.Fprintf(w, "  media reads    %12s      evictions   %d\n",
		fmtBytes(o.MediaReadBytes), o.CacheEvictions)
	fmt.Fprintf(w, "\nmedia writes by scope:\n")
	renderBars(w, o.ScopeMediaBytes, o.MediaWriteBytes)
	if o.Profile != nil {
		renderProfile(w, o.Profile)
	}
}

// renderBars prints one bar per scope, widest contributor first.
func renderBars(w io.Writer, byScope map[string]uint64, total uint64) {
	if total == 0 || len(byScope) == 0 {
		fmt.Fprintln(w, "  (no media writes)")
		return
	}
	scopes := make([]string, 0, len(byScope))
	for sc := range byScope {
		scopes = append(scopes, sc)
	}
	sort.Slice(scopes, func(i, j int) bool { return byScope[scopes[i]] > byScope[scopes[j]] })
	const width = 40
	for _, sc := range scopes {
		v := byScope[sc]
		frac := float64(v) / float64(total)
		n := int(frac*width + 0.5)
		if n == 0 && v > 0 {
			n = 1
		}
		fmt.Fprintf(w, "  %-9s %s%s %5.1f%%  %s\n",
			sc, strings.Repeat("█", n), strings.Repeat("·", width-n), 100*frac, fmtBytes(v))
	}
}

func fmtBytes(v uint64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(v)/(1<<10))
	}
	return fmt.Sprintf("%dB", v)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
