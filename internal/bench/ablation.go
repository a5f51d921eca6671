package bench

import (
	"fmt"
	"sync"

	"cclbtree"
	"cclbtree/internal/baselines/cclidx"
	"cclbtree/internal/index"
	"cclbtree/internal/pmem"
	"cclbtree/internal/workload"
)

// cclVariants are the §5.3 ablation configurations.
func cclVariants() []index.Factory {
	return []index.Factory{
		cclidx.Factory("Base", cclbtree.Config{Nbatch: -1, GC: cclbtree.GCOff}),
		cclidx.Factory("+BNode", cclbtree.Config{NaiveLogging: true, GC: cclbtree.GCOff}),
		cclidx.Factory("+WLog", cclbtree.Config{GC: cclbtree.GCOff}),
	}
}

// xbiSplit partitions a run's media-write bytes for Fig 13(b): the
// WAL's, the metadata's (superblock, chunk directory), and the rest —
// what it took to maintain the leaves (buffer flushes, splits, GC,
// foreground stores under no scope). The three sum to MediaWriteBytes.
func xbiSplit(st pmem.Stats) (leaf, wal, meta uint64) {
	wal = st.MediaWriteByScope[pmem.ScopeWAL]
	meta = st.MediaWriteByScope[pmem.ScopeMeta]
	return st.MediaWriteBytes - wal - meta, wal, meta
}

// Fig13 measures each optimization's contribution: throughput for the
// five operations (a), and XBI-amplification split into leaf-node and
// WAL traffic (b).
func Fig13(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	ops := []struct {
		name string
		mix  workload.Mix
	}{
		{"Insert", workload.Mix{Insert: 1}},
		{"Update", workload.Mix{Update: 1}},
		{"Delete", workload.Mix{Delete: 1}},
		{"Search", workload.Mix{Read: 1}},
		{"Scan", workload.Mix{Scan: 1, ScanLen: s.ScanLen}},
	}
	a := &Table{
		Title:  "Fig 13(a): throughput (Mop/s) of each optimization",
		Header: []string{"variant", "Insert", "Update", "Delete", "Search", "Scan"},
		Note:   fmt.Sprintf("%d threads", s.MainThreads),
	}
	b := &Table{
		Title:  "Fig 13(b): XBI-amplification split by source (insert workload)",
		Header: []string{"variant", "leaf XBI", "WAL XBI", "total XBI"},
		Note:   "leaf = total - WAL - metadata (chunk directory, superblock)",
	}
	for _, f := range cclVariants() {
		rowA := []string{""}
		for _, op := range ops {
			r, err := runOne(f, Spec{
				Threads: s.MainThreads,
				Warm:    s.Warm,
				Ops:     s.Ops,
				Mix:     op.mix,
				Seed:    s.Seed,
			})
			if err != nil {
				return nil, err
			}
			rowA[0] = r.Name
			rowA = append(rowA, f2(r.Res.Mops()))
			if op.name == "Insert" {
				leaf, wal, _ := xbiSplit(r.Res.Stats)
				user := float64(r.Res.UserBytes)
				if user == 0 {
					user = 1
				}
				b.Rows = append(b.Rows, []string{
					r.Name,
					f2(float64(leaf) / user),
					f2(float64(wal) / user),
					f2(r.Res.XBIAmp()),
				})
			}
		}
		a.Rows = append(a.Rows, rowA)
	}
	return []*Table{a, b}, nil
}

// Fig14 records the insert-throughput timeline for the three GC
// strategies: without GC, locality-aware GC, and naive stop-the-world
// GC. Locality-aware GC barely dents the curve; naive GC dips sharply
// when the collection starts (§5.3).
func Fig14(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	const buckets = 20
	type series struct {
		name string
		tp   []float64
	}
	var all []series
	var gcStartBucket int

	// One explicit GC event at 40% of the run, per the paper's Fig 14
	// methodology (populate, clean buffers, then "when the GC is
	// triggered..."): THlog is set high so GC never self-triggers.
	for _, cfg := range []struct {
		name    string
		opts    cclbtree.Config
		trigger bool
	}{
		{"w/o GC", cclbtree.Config{GC: cclbtree.GCOff, ChunkBytes: 64 << 10}, false},
		{"our GC", cclbtree.Config{GC: cclbtree.GCLocalityAware, ChunkBytes: 64 << 10, THlog: 1e9}, true},
		{"naive GC", cclbtree.Config{GC: cclbtree.GCNaive, ChunkBytes: 64 << 10, THlog: 1e9}, true},
	} {
		pool := NewPool(s.Warm+s.Ops, s.MainThreads)
		idx, err := cclidx.Factory("CCL-BTree", cfg.opts)(pool)
		if err != nil {
			return nil, err
		}
		// Populate, then measure a continuing insert stream, sampling
		// (virtual time, ops) pairs per thread.
		threads := s.MainThreads
		handles := make([]index.Handle, threads)
		for i := range handles {
			handles[i] = idx.NewHandle(i % pool.Sockets())
		}
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				h := handles[th]
				for i := th; i < s.Warm; i += threads {
					_ = h.Upsert(loadKey(nil, i), 7)
				}
			}(th)
		}
		wg.Wait()

		type sample struct{ vt int64 }
		samples := make([][]sample, threads)
		perThread := s.Ops * 2 / threads
		const sampleEvery = 512
		start := make([]int64, threads)
		for th, h := range handles {
			start[th] = h.Thread().Now()
		}
		tree := idx.(*cclidx.Tree).DB()
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				h := handles[th]
				cursor := s.Warm + th
				for i := 0; i < perThread; i++ {
					if cfg.trigger && th == 0 && i == perThread*2/5 {
						tree.StartGCAsync()
					}
					_ = h.Upsert(loadKey(nil, cursor), 7)
					cursor += threads
					if i%sampleEvery == sampleEvery-1 {
						samples[th] = append(samples[th], sample{h.Thread().Now() - start[th]})
					}
				}
			}(th)
		}
		wg.Wait()
		idx.Close()

		// Bucket ops-completed by virtual time across threads.
		var maxVT int64
		for th, h := range handles {
			if d := h.Thread().Now() - start[th]; d > maxVT {
				maxVT = d
			}
		}
		if maxVT == 0 {
			maxVT = 1
		}
		counts := make([]int, buckets)
		for th := range samples {
			for _, sm := range samples[th] {
				b := int(sm.vt * int64(buckets) / (maxVT + 1))
				counts[b] += sampleEvery
			}
		}
		tp := make([]float64, buckets)
		bucketNS := float64(maxVT) / buckets
		for i, c := range counts {
			tp[i] = float64(c) * 1e3 / bucketNS // Mop/s
		}
		all = append(all, series{cfg.name, tp})
		_ = gcStartBucket
	}

	t := &Table{
		Title:  "Fig 14: insert throughput (Mop/s) over time by GC strategy",
		Header: []string{"time%", all[0].name, all[1].name, all[2].name},
		Note:   "naive GC dips when collection starts; locality-aware GC tracks the no-GC curve",
	}
	for b := 0; b < buckets; b++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", (b+1)*100/buckets),
			f2(all[0].tp[b]), f2(all[1].tp[b]), f2(all[2].tp[b]),
		})
	}
	return []*Table{t}, nil
}

// AblationCache (extra) quantifies the read-cache benefit of buffer
// nodes: the fraction of lookups served without touching PM, by Nbatch.
func AblationCache(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	t := &Table{
		Title:  "Extra: buffer-node cache hit rate for reads after updates, by Nbatch",
		Header: []string{"Nbatch", "buffer hit %", "search Mop/s"},
	}
	for _, nb := range []int{1, 2, 3, 4, 5} {
		pool := NewPool(s.Warm+s.Ops, s.MainThreads)
		raw, err := cclidx.Factory("CCL-BTree", cclbtree.Config{Nbatch: nb, GC: cclbtree.GCOff})(pool)
		if err != nil {
			return nil, err
		}
		res, err := Run(pool, raw, Spec{
			Threads: s.MainThreads,
			Warm:    s.Warm,
			Ops:     s.Ops,
			Mix:     workload.Mix{Update: 0.5, Read: 0.5},
			Access:  func(int) workload.Access { return workload.NewZipf(uint64(s.Warm), 0.9) },
			Seed:    s.Seed,
		})
		if err != nil {
			return nil, err
		}
		c := raw.(*cclidx.Tree).DB().Metrics().Counters
		hit := 0.0
		if c.Lookups > 0 {
			hit = 100 * float64(c.BufferHits) / float64(c.Lookups)
		}
		raw.Close()
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", nb), f1(hit), f2(res.Mops())})
	}
	return []*Table{t}, nil
}

// AblationGC (extra) compares the media traffic of the two GC
// strategies directly: XPLine bytes written during collection.
func AblationGC(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	t := &Table{
		Title:  "Extra: media bytes written per GC strategy (same workload)",
		Header: []string{"strategy", "media MB", "XBI-amp", "GC runs"},
	}
	for _, cfg := range []struct {
		name string
		gc   cclbtree.GCPolicy
	}{
		{"locality-aware", cclbtree.GCLocalityAware},
		{"naive", cclbtree.GCNaive},
	} {
		pool := NewPool(s.Warm+s.Ops, s.MainThreads)
		raw, err := cclidx.Factory("CCL-BTree", cclbtree.Config{GC: cfg.gc, ChunkBytes: 64 << 10, THlog: 0.05})(pool)
		if err != nil {
			return nil, err
		}
		res, err := Run(pool, raw, Spec{
			Threads: s.MainThreads,
			Warm:    s.Warm,
			Ops:     s.Ops,
			Mix:     workload.Mix{Insert: 1},
			Seed:    s.Seed,
		})
		if err != nil {
			return nil, err
		}
		tree := raw.(*cclidx.Tree).DB()
		tree.WaitGC()
		c := tree.Metrics().Counters
		raw.Close()
		t.Rows = append(t.Rows, []string{
			cfg.name,
			f2(float64(res.Stats.MediaWriteBytes) / (1 << 20)),
			f2(res.XBIAmp()),
			fmt.Sprintf("%d", c.GCRuns),
		})
	}
	return []*Table{t}, nil
}
