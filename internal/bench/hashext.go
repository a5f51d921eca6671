package bench

import (
	"fmt"
	"math/rand"

	"cclbtree/internal/cclhash"
	"cclbtree/internal/pmem"
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
		workers, clocks := spread(pool, threads, h.NewWorker)
		err = pmem.Parallel(threads, func(th int) error {
			for i := th; i < s.Warm; i += threads {
				if err := workers[th].Put(loadKey(nil, i), 7); err != nil {
					return err
				}
			}
			return nil
		})
		perThread := s.Ops / threads
		var res *Result
		if err == nil {
			res, err = measure(pool, clocks, func(th int) error {
				rng := rand.New(rand.NewSource(s.Seed + int64(th)))
				u := workload.Uniform{N: uint64(s.Warm)}
				for i := 0; i < perThread; i++ {
					if err := workers[th].Put(u.Next(rng), 9); err != nil {
						return err
					}
				}
				return nil
			})
		}
		c := h.Counters()
		h.Freeze()
		if err != nil {
			return nil, err
		}
		res.Ops = perThread * threads
		res.UserBytes = uint64(res.Ops) * 16
		label := fmt.Sprintf("%d", nb)
		if nb == -1 {
			label = "0 (naive)"
		}
		t.Rows = append(t.Rows, []string{
			label,
			f2(res.Mops()),
			f2(res.XBIAmp()),
			f2(float64(c.LoggedWrites) / float64(res.Ops+s.Warm)),
			fmt.Sprintf("%d", c.GCRuns),
		})
	}
	return []*Table{t}, nil
}
