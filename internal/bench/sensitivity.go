package bench

import (
	"fmt"

	"cclbtree"
	"cclbtree/internal/baselines/cclidx"
	"cclbtree/internal/index"
	"cclbtree/internal/workload"
)

// Table1Exp is the Nbatch sensitivity study (§5.4 Table 1): insert and
// search throughput, media write volume, DRAM cache hits, and memory
// usage as the buffer-node capacity grows 1→5.
func Table1Exp(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	t := &Table{
		Title: "Table 1: sensitivity of Nbatch",
		Header: []string{
			"Nbatch", "insert Mop/s", "media write MB", "search Mop/s",
			"DRAM hits", "DRAM MB", "PM MB",
		},
		Note: fmt.Sprintf("%d threads, %d warm keys", s.MainThreads, s.Warm),
	}
	for _, nb := range []int{1, 2, 3, 4, 5} {
		f := cclidx.Factory("CCL-BTree", cclbtree.Config{Nbatch: nb, GC: cclbtree.GCOff})
		pool := NewPool(s.Warm+s.Ops, s.MainThreads)
		raw, err := f(pool)
		if err != nil {
			return nil, err
		}
		ins, err := Run(pool, raw, Spec{
			Threads: s.MainThreads, Warm: s.Warm, Ops: s.Ops,
			Mix: workload.Mix{Insert: 1}, Seed: s.Seed,
		})
		if err != nil {
			return nil, err
		}
		srch, err := Run(pool, raw, Spec{
			Threads: s.MainThreads, Warm: 0, Ops: s.Ops,
			Mix: workload.Mix{Read: 1}, Seed: s.Seed + 1,
			Access: func(int) workload.Access {
				return workload.Uniform{N: uint64(s.Warm)}
			},
		})
		if err != nil {
			return nil, err
		}
		c := raw.(*cclidx.Tree).DB().Metrics().Counters
		dram, pm := raw.MemoryUsage()
		raw.Close()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nb),
			f2(ins.Mops()),
			f2(float64(ins.Stats.MediaWriteBytes) / (1 << 20)),
			f2(srch.Mops()),
			fmt.Sprintf("%d", c.BufferHits),
			f2(float64(dram) / (1 << 20)),
			f2(float64(pm) / (1 << 20)),
		})
	}
	return []*Table{t}, nil
}

// Table2Exp is the THlog sensitivity study (§5.4 Table 2): the GC
// trigger threshold barely moves insert throughput but bounds the peak
// log footprint.
func Table2Exp(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	t := &Table{
		Title:  "Table 2: sensitivity of THlog",
		Header: []string{"THlog", "insert Mop/s", "peak log MB"},
		Note:   fmt.Sprintf("%d threads, insert workload", s.MainThreads),
	}
	for _, th := range []float64{0.10, 0.15, 0.20, 0.25, 0.30, 0.35} {
		f := cclidx.Factory("CCL-BTree", cclbtree.Config{THlog: th, ChunkBytes: 64 << 10})
		pool := NewPool(s.Warm+s.Ops, s.MainThreads)
		raw, err := f(pool)
		if err != nil {
			return nil, err
		}
		res, err := Run(pool, raw, Spec{
			Threads: s.MainThreads, Warm: s.Warm, Ops: s.Ops,
			Mix: workload.Mix{Insert: 1}, Seed: s.Seed,
		})
		if err != nil {
			return nil, err
		}
		tree := raw.(*cclidx.Tree).DB()
		tree.WaitGC()
		peak := tree.PeakLogBytes()
		raw.Close()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", th*100),
			f2(res.Mops()),
			f2(float64(peak) / (1 << 20)),
		})
	}
	return []*Table{t}, nil
}

// Fig15a sweeps the Zipfian coefficient with a 50/50 lookup/upsert mix.
// CCL-BTree benefits from skew (more buffer hits); LB+-Tree collapses
// at 0.99 from HTM aborts (§5.4).
func Fig15a(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	coeffs := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.99}
	t := &Table{
		Title:  "Fig 15(a): throughput (Mop/s) vs Zipfian coefficient (50% lookup / 50% upsert)",
		Header: []string{"index"},
		Note:   fmt.Sprintf("%d threads", s.MainThreads),
	}
	for _, c := range coeffs {
		t.Header = append(t.Header, fmt.Sprintf("%.2f", c))
	}
	for _, f := range Indexes() {
		row := []string{""}
		for _, c := range coeffs {
			z := workload.NewZipf(uint64(s.Warm), c)
			r, err := runOne(f, Spec{
				Threads: s.MainThreads,
				Warm:    s.Warm,
				Ops:     s.Ops,
				Mix:     workload.Mix{Read: 0.5, Update: 0.5},
				Access:  func(int) workload.Access { return z },
				Seed:    s.Seed,
			})
			if err != nil {
				return nil, err
			}
			row[0] = r.Name
			row = append(row, f2(r.Res.Mops()))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// Fig15b measures variable-size KV inserts (8–128 B keys and values).
// CCL-BTree runs in its native VarKV mode (indirection keys, comparator
// chases blobs); the baselines use the equivalent substitution of an
// 8 B routing key plus out-of-band payload blobs. DPTree and PACTree
// are omitted, as in the paper ("unable to run their code in the
// test").
func Fig15b(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	warm := s.Warm / 2
	ops := s.Ops / 2
	t := &Table{
		Title:  "Fig 15(b): variable-size KV insert throughput (Mop/s) vs threads",
		Header: []string{"index"},
		Note:   "key and value sizes random in 8–128 B",
	}
	for _, th := range s.Threads {
		t.Header = append(t.Header, fmt.Sprintf("%dthr", th))
	}

	// CCL-BTree in native VarKV mode.
	cclRow := []string{"CCL-BTree"}
	for _, th := range s.Threads {
		mops, err := runVarCCL(s, th, warm, ops)
		if err != nil {
			return nil, err
		}
		cclRow = append(cclRow, f2(mops))
	}

	lineup := []index.Factory{Indexes()[0], Indexes()[1], Indexes()[3], Indexes()[4]} // fptree, fast&fair, utree, lbtree
	for _, f := range lineup {
		row := []string{""}
		for _, th := range s.Threads {
			r, err := runOne(f, Spec{
				Threads:        th,
				Warm:           warm,
				Ops:            ops,
				Mix:            workload.Mix{Insert: 1},
				ValueBlobBytes: 68, // mean of 8–128
				Seed:           s.Seed,
			})
			if err != nil {
				return nil, err
			}
			row[0] = r.Name
			row = append(row, f2(r.Res.Mops()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, cclRow)
	return []*Table{t}, nil
}

// Fig15c measures large-value inserts (64–512 B) through indirection
// pointers at the maximum thread count.
func Fig15c(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	sizes := []int{64, 128, 256, 512}
	threads := s.Threads[len(s.Threads)-1]
	t := &Table{
		Title:  "Fig 15(c): insert throughput (Mop/s) vs value size, indirection pointers",
		Header: []string{"index", "64B", "128B", "256B", "512B"},
		Note:   fmt.Sprintf("%d threads, 8 B keys", threads),
	}
	for _, f := range Indexes() {
		row := []string{""}
		for _, sz := range sizes {
			r, err := runOne(f, Spec{
				Threads:        threads,
				Warm:           s.Warm / 2,
				Ops:            s.Ops / 2,
				Mix:            workload.Mix{Insert: 1},
				ValueBlobBytes: sz,
				Seed:           s.Seed,
			})
			if err != nil {
				return nil, err
			}
			row[0] = r.Name
			row = append(row, f2(r.Res.Mops()))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// Fig15d sweeps the dataset size at the maximum thread count.
func Fig15d(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	threads := s.Threads[len(s.Threads)-1]
	sizes := []int{s.Warm, 2 * s.Warm, 5 * s.Warm, 10 * s.Warm}
	t := &Table{
		Title:  "Fig 15(d): insert throughput (Mop/s) vs dataset size",
		Header: []string{"index"},
		Note:   fmt.Sprintf("%d threads; sizes scaled from the paper's 100M–1000M", threads),
	}
	for _, n := range sizes {
		t.Header = append(t.Header, fmt.Sprintf("%dk", n/1000))
	}
	for _, f := range Indexes() {
		row := []string{""}
		for _, n := range sizes {
			r, err := runOne(f, Spec{
				Threads: threads,
				Warm:    n,
				Ops:     s.Ops,
				Mix:     workload.Mix{Insert: 1},
				Seed:    s.Seed,
			})
			if err != nil {
				return nil, err
			}
			row[0] = r.Name
			row = append(row, f2(r.Res.Mops()))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}
