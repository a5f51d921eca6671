package bench

import (
	"fmt"
	"math/rand"
	"sync"

	"cclbtree"
	"cclbtree/internal/pmem"
	"cclbtree/internal/workload"
)

// runVarCCL measures CCL-BTree's native variable-size KV insert path
// (Fig 15b): keys and values are 8–128 B byte strings behind
// indirection pointers, compared by content.
func runVarCCL(s Scale, threads, warm, ops int) (float64, error) {
	pool := NewPool(warm+ops, threads)
	db, err := cclbtree.NewOnPool(pool, cclbtree.Config{VarKV: true})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	sizer := workload.VarSizer{Min: 8, Max: 128}
	workers := make([]*cclbtree.Session, threads)
	for i := range workers {
		workers[i] = db.Session(i % pool.Sockets())
	}
	var wg sync.WaitGroup
	errs := make([]error, threads)
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			w := workers[th]
			rng := rand.New(rand.NewSource(s.Seed + int64(th)))
			for i := th; i < warm; i += threads {
				k := sizer.Bytes(rng, loadKey(nil, i))
				if err := w.PutVar(k, sizer.Bytes(rng, uint64(i))); err != nil {
					errs[th] = err
					return
				}
			}
		}(th)
	}
	wg.Wait()
	start := make([]int64, threads)
	for i, w := range workers {
		start[i] = w.Thread().Now()
	}
	perThread := ops / threads
	if perThread == 0 {
		perThread = 1
	}
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			w := workers[th]
			rng := rand.New(rand.NewSource(s.Seed + 999 + int64(th)))
			cursor := warm + th
			for i := 0; i < perThread; i++ {
				k := sizer.Bytes(rng, loadKey(nil, cursor))
				cursor += threads
				if err := w.PutVar(k, sizer.Bytes(rng, uint64(cursor))); err != nil {
					errs[th] = err
					return
				}
			}
		}(th)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	var elapsed int64
	for i, w := range workers {
		if d := w.Thread().Now() - start[i]; d > elapsed {
			elapsed = d
		}
	}
	if elapsed == 0 {
		elapsed = 1
	}
	return float64(perThread*threads) * 1e3 / float64(elapsed), nil
}

// Fig16 repeats the insert sweep on an eADR platform: no explicit
// flushes, persistence through cache eviction. The paper's interesting
// observation reproduces: implicit evictions are oblivious to XPLine
// locality, so eADR throughput is BELOW the ADR numbers for CCL-BTree.
func Fig16(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	t := &Table{
		Title:  "Fig 16: insert throughput (Mop/s) vs threads, eADR mode",
		Header: []string{"index"},
		Note:   "flushes removed; dirty lines reach media via cache eviction",
	}
	for _, th := range s.Threads {
		t.Header = append(t.Header, fmt.Sprintf("%dthr", th))
	}
	for _, f := range Indexes() {
		row := []string{""}
		for _, th := range s.Threads {
			pool := pmem.NewPool(pmem.Config{
				Sockets:        2,
				DIMMsPerSocket: 4,
				DeviceBytes:    deviceBytes(s.Warm+s.Ops, th),
				CacheLines:     benchCacheLines,
				Mode:           pmem.EADR,
			})
			idx, err := f(pool)
			if err != nil {
				return nil, err
			}
			res, err := Run(pool, idx, Spec{
				Threads: th, Warm: s.Warm, Ops: s.Ops,
				Mix: workload.Mix{Insert: 1}, Seed: s.Seed,
			})
			name := idx.Name()
			idx.Close()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			row[0] = name
			row = append(row, f2(res.Mops()))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// Fig17 measures recovery time versus dataset size and thread count:
// the leaf-list walk plus parallel WAL replay and timestamp reset.
func Fig17(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	sizes := []int{s.Warm, 5 * s.Warm, 10 * s.Warm}
	threadCounts := []int{s.MainThreads / 2, s.MainThreads}
	t := &Table{
		Title:  "Fig 17: recovery time (ms) vs #KVs",
		Header: []string{"keys"},
		Note:   "simulated time; scaled from the paper's 100M–1000M keys",
	}
	for _, tc := range threadCounts {
		t.Header = append(t.Header, fmt.Sprintf("%d threads", tc))
	}
	for _, n := range sizes {
		row := []string{fmt.Sprintf("%dk", n/1000)}
		for _, tc := range threadCounts {
			pool := pmem.NewPool(pmem.Config{
				Sockets:        2,
				DIMMsPerSocket: 4,
				DeviceBytes:    2 * deviceBytes(n, s.MainThreads),
			})
			db, err := cclbtree.NewOnPool(pool, cclbtree.Config{ChunkBytes: 256 << 10})
			if err != nil {
				return nil, err
			}
			threads := s.MainThreads
			workers := make([]*cclbtree.Session, threads)
			for i := range workers {
				workers[i] = db.Session(i % pool.Sockets())
			}
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					w := workers[th]
					for i := th; i < n; i += threads {
						_ = w.Put(loadKey(nil, i), uint64(i+1))
					}
				}(th)
			}
			wg.Wait()
			db.Close()
			pool.Crash()
			_, st, err := cclbtree.OpenWithStats(pool, cclbtree.Config{}, tc)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(float64(st.VirtualNS)/1e6))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// Fig18 reports DRAM and PM consumption after a bulk load, across
// value sizes stored through indirection pointers.
func Fig18(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	sizes := []int{8, 32, 128, 512}
	var out []*Table
	for _, metric := range []string{"DRAM MB", "PM MB"} {
		t := &Table{
			Title:  "Fig 18: " + metric + " after loading, by value size",
			Header: []string{"index", "8B", "32B", "128B", "512B"},
			Note:   fmt.Sprintf("%d keys loaded", 2*s.Warm),
		}
		out = append(out, t)
	}
	for _, f := range Indexes() {
		rowD := []string{""}
		rowP := []string{""}
		for _, sz := range sizes {
			blob := sz
			if sz == 8 {
				blob = 0 // inline 8 B values
			}
			r, err := runOne(f, Spec{
				Threads:        s.MainThreads,
				Warm:           2 * s.Warm,
				Ops:            1,
				Mix:            workload.Mix{Read: 1},
				ValueBlobBytes: blob,
				Seed:           s.Seed,
			})
			if err != nil {
				return nil, err
			}
			rowD[0] = r.Name
			rowP[0] = r.Name
			rowD = append(rowD, f2(float64(r.Res.DRAMBytes)/(1<<20)))
			rowP = append(rowP, f2(float64(r.Res.PMBytes)/(1<<20)))
		}
		out[0].Rows = append(out[0].Rows, rowD)
		out[1].Rows = append(out[1].Rows, rowP)
	}
	return out, nil
}

// Fig19 runs the insert workload over the four SOSD-like datasets at
// the maximum thread count.
func Fig19(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	threads := s.Threads[len(s.Threads)-1]
	datasets := []workload.Dataset{
		workload.DatasetAmzn, workload.DatasetOsm,
		workload.DatasetWiki, workload.DatasetFacebook,
	}
	t := &Table{
		Title:  "Fig 19: insert throughput (Mop/s) on realistic datasets",
		Header: []string{"index", "amzn", "osm", "wiki", "facebook"},
		Note:   fmt.Sprintf("%d threads; synthetic stand-ins with SOSD statistical character", threads),
	}
	keysets := map[workload.Dataset][]uint64{}
	for _, d := range datasets {
		keysets[d] = workload.Keys(d, s.Warm+s.Ops, s.Seed)
	}
	for _, f := range Indexes() {
		row := []string{""}
		for _, d := range datasets {
			r, err := runOne(f, Spec{
				Threads: threads,
				Warm:    s.Warm,
				Ops:     s.Ops,
				Mix:     workload.Mix{Insert: 1},
				Keys:    keysets[d],
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

// Table3Exp compares CCL-BTree with the log-structured stores: insert,
// search, and scan throughput at the main thread count (§5.5 Table 3).
func Table3Exp(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	t := &Table{
		Title:  "Table 3: comparison with log-structured stores (Mop/s)",
		Header: []string{"op", "RocksDB-PM", "FlatStore", "CCL-BTree"},
		Note:   fmt.Sprintf("%d threads", s.MainThreads),
	}
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"Insert", workload.Mix{Insert: 1}},
		{"Search", workload.Mix{Read: 1}},
		{"Scan", workload.Mix{Scan: 1, ScanLen: s.ScanLen}},
	}
	cells := map[string][]string{}
	order := []string{}
	for _, m := range mixes {
		ops := s.Ops
		if m.name == "Scan" {
			ops = s.Ops / 10
		}
		res, err := runLineup(LogStructured(), Spec{
			Threads: s.MainThreads,
			Warm:    s.Warm,
			Ops:     ops,
			Mix:     m.mix,
			Seed:    s.Seed,
		})
		if err != nil {
			return nil, err
		}
		row := []string{m.name}
		for _, r := range res {
			row = append(row, f2(r.Res.Mops()))
		}
		cells[m.name] = row
		order = append(order, m.name)
	}
	for _, k := range order {
		t.Rows = append(t.Rows, cells[k])
	}
	return []*Table{t}, nil
}
