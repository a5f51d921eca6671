package bench

import (
	"fmt"
	"math/rand"
	"sync"

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
	reps := s.Ops / 10
	if reps < 2000 {
		reps = 2000
	}
	threadCounts := s.Threads

	run := func(threads, cachelines, xplines int) int64 {
		pool := NewPool(s.Warm+s.Ops, threads)
		var wg sync.WaitGroup
		elapsed := make([]int64, threads)
		// Each thread owns a private region so flush targets are
		// random XPLines, as in the paper's microbenchmark.
		regionXPLines := int64(4096)
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				t := pool.NewThread(th % pool.Sockets())
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
				elapsed[th] = t.Now()
			}(th)
		}
		wg.Wait()
		var maxNS int64
		for _, e := range elapsed {
			if e > maxNS {
				maxNS = e
			}
		}
		return maxNS
	}

	a := &Table{
		Title:  "Fig 2(a): exec time (ms) vs threads — N cacheline flushes into ONE XPLine per op",
		Header: []string{"threads", "N=1", "N=2", "N=3", "N=4"},
		Note:   fmt.Sprintf("%d ops/thread; times converge as threads grow: cacheline count stops mattering", reps),
	}
	for _, th := range threadCounts {
		row := []string{fmt.Sprintf("%d", th)}
		for n := 1; n <= 4; n++ {
			row = append(row, f2(float64(run(th, n, 1))/1e6))
		}
		a.Rows = append(a.Rows, row)
	}

	b := &Table{
		Title:  "Fig 2(b): exec time (ms) vs threads — 4 cacheline flushes into N XPLines per op",
		Header: []string{"threads", "N=1", "N=2", "N=3", "N=4"},
		Note:   "time scales ~linearly with XPLine flushes at every thread count",
	}
	for _, th := range threadCounts {
		row := []string{fmt.Sprintf("%d", th)}
		for n := 1; n <= 4; n++ {
			// 4 cacheline flushes spread over n XPLines.
			per := 4 / n
			if per < 1 {
				per = 1
			}
			row = append(row, f2(float64(run(th, per, n))/1e6))
		}
		b.Rows = append(b.Rows, row)
	}
	return []*Table{a, b}, nil
}
