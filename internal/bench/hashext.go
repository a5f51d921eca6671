package bench

import (
	"fmt"
	"math/rand"
	"sync"

	"cclbtree/internal/cclhash"
	"cclbtree/internal/workload"
)

// ExtensionHash quantifies the §6 generality claim: the CCL techniques
// applied to a persistent hash table, swept over Nbatch (0 = the naive
// flush-per-insert table).
func ExtensionHash(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	t := &Table{
		Title:  "Extension (§6): CCL techniques on a persistent hash table",
		Header: []string{"Nbatch", "insert Mop/s", "XBI-amp", "logged/op", "GC runs"},
		Note:   fmt.Sprintf("%d threads, uniform upserts over %d keys", s.MainThreads, s.Warm),
	}
	for _, nb := range []int{-1, 1, 2, 4} {
		pool := NewPool(s.Warm+s.Ops, s.MainThreads)
		h, err := cclhash.New(pool, cclhash.Options{
			Buckets:    s.Warm / 8,
			Nbatch:     nb,
			ChunkBytes: 256 << 10,
		})
		if err != nil {
			return nil, err
		}
		threads := s.MainThreads
		workers := make([]*cclhash.Worker, threads)
		for i := range workers {
			workers[i] = h.NewWorker(i % pool.Sockets())
		}
		var wg sync.WaitGroup
		// Warm.
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				w := workers[th]
				for i := th; i < s.Warm; i += threads {
					_ = w.Put(loadKey(nil, i), 7)
				}
			}(th)
		}
		wg.Wait()
		pool.ResetStats()
		start := make([]int64, threads)
		for i, w := range workers {
			start[i] = w.Thread().Now()
		}
		perThread := s.Ops / threads
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				w := workers[th]
				rng := rand.New(rand.NewSource(s.Seed + int64(th)))
				u := workload.Uniform{N: uint64(s.Warm)}
				for i := 0; i < perThread; i++ {
					_ = w.Put(u.Next(rng), 9)
				}
			}(th)
		}
		wg.Wait()
		var elapsed int64
		for i, w := range workers {
			if d := w.Thread().Now() - start[i]; d > elapsed {
				elapsed = d
			}
		}
		pool.DrainXPBuffers()
		st := pool.Stats()
		ops := perThread * threads
		st.UserWriteBytes = uint64(ops * 16)
		_, logged, gcRuns, _ := h.Stats()
		h.Close()
		label := fmt.Sprintf("%d", nb)
		if nb == -1 {
			label = "0 (naive)"
		}
		t.Rows = append(t.Rows, []string{
			label,
			f2(float64(ops) * 1e3 / float64(elapsed)),
			f2(st.XBIAmplification()),
			f2(float64(logged) / float64(ops+s.Warm)),
			fmt.Sprintf("%d", gcRuns),
		})
	}
	return []*Table{t}, nil
}
