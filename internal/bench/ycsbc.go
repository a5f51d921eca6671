package bench

import (
	"fmt"

	"cclbtree"
	"cclbtree/internal/baselines/cclidx"
	"cclbtree/internal/workload"
)

// readScalingSweep is the YCSB-C thread sweep. It stops at 8 because
// the experiment's point is the read path's lock behavior, not raw
// scaling: the LockedReads ablation pays a per-acquisition handoff
// cost that grows with the worker count, so by 8 threads the lock-free
// path's advantage is fully developed. This is also the scale the CI
// perf gate pins (scripts/perf_baseline_ycsbc.json).
var readScalingSweep = []int{1, 2, 4, 8}

// YCSBC runs the read-scaling experiment: a read-only YCSB-C workload
// (Zipfian 0.99) swept over thread counts, once on the default
// lock-free optimistic read path and once with Config.LockedReads —
// the ablation that routes every Get/Scan through the leaf version
// lock the way the pre-seqlock tree did. The two series share warm
// set, access stream and seed, so the gap is purely the read
// protocol: seqlock validation (two DRAM reads per attempt, retried
// on conflict) versus lock handoff that serializes readers behind
// cacheline ping-pong. ReadRetries per series shows how often
// optimistic validation actually failed.
func YCSBC(s Scale) ([]*Table, error) {
	sweep := s.Threads
	s = s.withDefaults()
	if len(sweep) == 0 {
		sweep = readScalingSweep
	}

	variants := []struct {
		name string
		cfg  cclbtree.Config
	}{
		{"CCL-BTree", cclbtree.Config{ChunkBytes: 256 << 10, Metrics: true}},
		{"CCL-locked", cclbtree.Config{ChunkBytes: 256 << 10, Metrics: true, LockedReads: true}},
	}

	tab := &Table{
		Title:  "YCSB-C read scaling: lock-free optimistic reads vs LockedReads ablation (Zipfian 0.99, 100% read)",
		Header: []string{"threads", "index", "Mop/s", "p50(ns)", "p99(ns)", "read retries"},
		Note:   "read retries = optimistic passes invalidated by a concurrent writer and retried",
	}
	mops := map[string]map[int]float64{}
	for _, v := range variants {
		mops[v.name] = map[int]float64{}
	}
	for _, th := range sweep {
		for _, v := range variants {
			pool := NewPool()
			idx, err := cclidx.Factory(v.name, v.cfg)(pool)
			if err != nil {
				return nil, err
			}
			z := workload.NewZipf(uint64(s.Warm), 0.99)
			res, err := Run(pool, idx, Spec{
				Threads: th,
				Warm:    s.Warm,
				Ops:     s.Ops,
				Mix:     workload.Mix{Read: 1.0},
				Access:  func(int) workload.Access { return z },
				Latency: true,
				Seed:    s.Seed,
			})
			if err != nil {
				idx.Close()
				return nil, fmt.Errorf("%s/t%d: %w", v.name, th, err)
			}
			retries := idx.(*cclidx.Tree).DB().Metrics().Counters.ReadRetries
			idx.Close()
			mops[v.name][th] = res.Mops()
			tab.Rows = append(tab.Rows, []string{
				fmt.Sprint(th), v.name, f2(res.Mops()),
				fmt.Sprint(res.Pct(50)), fmt.Sprint(res.Pct(99)),
				fmt.Sprint(retries),
			})
		}
	}

	last := sweep[len(sweep)-1]
	if locked := mops["CCL-locked"][last]; locked > 0 {
		tab.Note += fmt.Sprintf("; lock-free is %.1fx locked at %d threads",
			mops["CCL-BTree"][last]/locked, last)
	}
	return []*Table{tab}, nil
}
