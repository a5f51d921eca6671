package bench

import (
	"fmt"

	"cclbtree"
	"cclbtree/internal/baselines/cclidx"
	"cclbtree/internal/workload"
)

// readScalingSweep is the YCSB-C thread sweep; TestReadScaling gates
// its last point against its first.
var readScalingSweep = []int{1, 2, 4, 8}

// YCSBC runs the read-scaling experiment: a read-only YCSB-C workload
// (Zipfian 0.99) swept over thread counts on the tree's read path, which
// takes no lock — seqlock validation is two DRAM reads per attempt,
// retried on conflict — so readers share nothing they write and the rate
// should grow with the thread count. Every point shares warm set, access
// stream and seed; the speedup column is each point over the sweep's
// first. ReadRetries shows how often optimistic validation actually
// failed.
func YCSBC(s Scale) ([]*Table, error) {
	sweep := s.Threads
	s = s.withDefaults()
	if len(sweep) == 0 {
		sweep = readScalingSweep
	}

	tab := &Table{
		Title:  "YCSB-C read scaling: lock-free optimistic reads (Zipfian 0.99, 100% read)",
		Header: []string{"threads", "Mop/s", "speedup", "p50(ns)", "p99(ns)", "read retries"},
		Note:   "speedup = Mop/s over the first row's; read retries = optimistic passes invalidated by a concurrent writer and retried",
	}
	var base float64
	for _, th := range sweep {
		pool := NewPool(s.Warm+s.Ops, th)
		idx, err := cclidx.Factory("CCL-BTree", cclbtree.Config{ChunkBytes: 256 << 10, Metrics: true})(pool)
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
			return nil, fmt.Errorf("t%d: %w", th, err)
		}
		retries := idx.(*cclidx.Tree).DB().Metrics().Counters.ReadRetries
		idx.Close()
		if base == 0 {
			base = res.Mops()
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(th), f2(res.Mops()), f2(res.Mops() / base),
			fmt.Sprint(res.Pct(50)), fmt.Sprint(res.Pct(99)),
			fmt.Sprint(retries),
		})
	}
	return []*Table{tab}, nil
}
