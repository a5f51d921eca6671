package bench

import (
	"fmt"
	"math/rand"

	"cclbtree/internal/pmem"
)

// Fig2 reproduces the motivating device experiment of §2.2: with the
// number of XPLine flushes fixed, adding cacheline flushes barely moves
// multi-threaded execution time (a); with cacheline flushes fixed,
// execution time grows linearly with XPLine flushes (b). The takeaway
// is that XBI-amplification, not CLI-amplification, bounds throughput
// once PM bandwidth saturates.
func Fig2(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	reps := max(s.Ops/10, 2000)
	// panel fills tab with one row per thread count and one cell per
	// N = 1..4: every thread issues reps ops, each flushing cachelines
	// cachelines into each of xplines random XPLines, with shape(N)
	// giving the pair. A cell is the slowest thread's time.
	panel := func(tab *Table, shape func(n int) (cachelines, xplines int)) error {
		for _, threads := range s.Threads {
			row := []string{fmt.Sprintf("%d", threads)}
			for n := 1; n <= 4; n++ {
				cachelines, xplines := shape(n)
				pool := NewPool(s.Warm+s.Ops, threads)
				clocks := make([]*pmem.Thread, threads)
				for th := range clocks {
					clocks[th] = pool.NewThread(th % pool.Sockets())
				}
				// Each thread owns a private region so flush targets are
				// random XPLines, as in the paper's microbenchmark.
				const regionXPLines = 4096
				res, err := measure(pool, clocks, func(th int) error {
					t := clocks[th]
					rng := rand.New(rand.NewSource(int64(th + 1)))
					base := int64(th) * regionXPLines * pmem.XPLineSize
					for i := 0; i < reps; i++ {
						for x := 0; x < xplines; x++ {
							xp := base + rng.Int63n(regionXPLines)*pmem.XPLineSize
							a := pmem.MakeAddr(th%pool.Sockets(), uint64(xp))
							for c := 0; c < cachelines; c++ {
								line := a.Add(int64(c%4) * pmem.CachelineSize)
								t.Store(line, uint64(i))
								t.Flush(line, 8)
							}
							t.Fence()
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				row = append(row, f2(float64(res.ElapsedNS)/1e6))
			}
			tab.Rows = append(tab.Rows, row)
		}
		return nil
	}

	a := &Table{
		Title:  "Fig 2(a): exec time (ms) vs threads — N cacheline flushes into ONE XPLine per op",
		Header: []string{"threads", "N=1", "N=2", "N=3", "N=4"},
		Note:   fmt.Sprintf("%d ops/thread; times converge as threads grow: cacheline count stops mattering", reps),
	}
	if err := panel(a, func(n int) (int, int) { return n, 1 }); err != nil {
		return nil, err
	}
	b := &Table{
		Title:  "Fig 2(b): exec time (ms) vs threads — 4 cacheline flushes into N XPLines per op",
		Header: []string{"threads", "N=1", "N=2", "N=3", "N=4"},
		Note:   "time scales ~linearly with XPLine flushes at every thread count",
	}
	// 4 cacheline flushes spread over n XPLines.
	if err := panel(b, func(n int) (int, int) { return max(4/n, 1), n }); err != nil {
		return nil, err
	}
	return []*Table{a, b}, nil
}
