package bench

import (
	"fmt"

	"cclbtree"
	"cclbtree/internal/baselines/cclidx"
	"cclbtree/internal/obs"
	"cclbtree/internal/workload"
)

// YCSBB runs the profiling showcase: a YCSB-B mix (95% reads, 5%
// updates) over a Zipfian 0.99 key stream against CCL-BTree with the
// full second obs tier on — lock-contention profiling, critical-path
// span attribution and the leaf heatmap — and renders all three next to
// the throughput row. Its BENCH json always carries a profile, which is
// what cclstat --replay renders.
func YCSBB(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	pool := NewPool(s.Warm+s.Ops, s.MainThreads)
	if s.Tracer.Enabled() {
		pool.SetDeviceTracer(s.Tracer.DeviceHook())
	}
	idx, err := cclidx.Factory("CCL-BTree", cclbtree.Config{
		ChunkBytes: 256 << 10,
		Metrics:    true,
		Tracer:     s.Tracer,
	})(pool)
	if err != nil {
		return nil, err
	}
	defer idx.Close()

	z := workload.NewZipf(uint64(s.Warm), 0.99)
	res, err := Run(pool, idx, Spec{
		Threads: s.MainThreads,
		Warm:    s.Warm,
		Ops:     s.Ops,
		Mix:     workload.Mix{Read: 0.95, Update: 0.05},
		Access:  func(int) workload.Access { return z },
		Latency: true,
		Seed:    s.Seed,
	})
	if err != nil {
		return nil, err
	}

	tabs := []*Table{{
		Title:  "YCSB-B profile: throughput (Zipfian 0.99, 95% read / 5% update)",
		Header: []string{"index", "Mop/s", "WA", "CLI", "p50(ns)", "p99(ns)"},
		Rows: [][]string{{
			idx.Name(), f2(res.Mops()), f2(res.XBIAmp()), f2(res.CLIAmp()),
			fmt.Sprint(res.Pct(50)), fmt.Sprint(res.Pct(99)),
		}},
	}}
	if res.Profile != nil {
		tabs = append(tabs, profileTables(res.Profile)...)
	}
	return tabs, nil
}

// profileTables renders one obs.Profile as printable tables (shared
// with nothing yet; cclstat has its own terminal renderer).
func profileTables(p *obs.Profile) []*Table {
	var tabs []*Table

	if len(p.Segments) > 0 {
		// Per-op totals give each segment a share-of-latency column.
		opSum := map[string]uint64{}
		for _, sg := range p.Segments {
			opSum[sg.Op] += sg.SumNS
		}
		seg := &Table{
			Title:  "critical-path attribution (virtual ns per op segment)",
			Header: []string{"op", "segment", "count", "p50", "p99", "p999", "share"},
			Note:   "share = segment time / op class total; segments partition each op's latency",
		}
		for _, sg := range p.Segments {
			share := 0.0
			if t := opSum[sg.Op]; t > 0 {
				share = 100 * float64(sg.SumNS) / float64(t)
			}
			seg.Rows = append(seg.Rows, []string{
				sg.Op, sg.Segment, fmt.Sprint(sg.Count),
				fmt.Sprint(sg.P50NS), fmt.Sprint(sg.P99NS), fmt.Sprint(sg.P999NS),
				f1(share) + "%",
			})
		}
		tabs = append(tabs, seg)
	}

	if len(p.Locks) > 0 {
		lk := &Table{
			Title:  "lock contention (wall-clock ns, 1-in-64 sampled)",
			Header: []string{"class", "acquisitions", "contended", "wait p50", "wait p99", "wait max", "hold p99"},
			Note:   "contended = sampled waits ≥ 1µs (lower bound)",
		}
		for _, ls := range p.Locks {
			lk.Rows = append(lk.Rows, []string{
				ls.Class, fmt.Sprint(ls.Acquisitions), fmt.Sprint(ls.Contended),
				fmt.Sprint(ls.WaitP50NS), fmt.Sprint(ls.WaitP99NS), fmt.Sprint(ls.WaitMaxNS),
				fmt.Sprint(ls.HoldP99NS),
			})
		}
		tabs = append(tabs, lk)
	}

	if len(p.HotLeaves) > 0 {
		hl := &Table{
			Title:  "hot leaves (top-K by decayed access score)",
			Header: []string{"leaf", "score", "reads", "writes"},
			Note:   fmt.Sprintf("heat epoch %d, %d touches dropped at saturation", p.HeatEpoch, p.HeatDropped),
		}
		for _, e := range p.HotLeaves {
			hl.Rows = append(hl.Rows, []string{
				fmt.Sprintf("%#x", e.Leaf), fmt.Sprint(e.Score),
				fmt.Sprint(e.Reads), fmt.Sprint(e.Writes),
			})
		}
		tabs = append(tabs, hl)
	}
	return tabs
}
