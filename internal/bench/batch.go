package bench

import (
	"fmt"
	"sync"

	"cclbtree"
	"cclbtree/internal/workload"
)

// BatchExp (extra) measures the Session.Apply group-commit path
// against the per-op write path on a bulk-ingest workload: each thread
// inserts blocks of consecutive keys, the natural shape for loaders
// and log shippers. Batching wins twice there — one WAL fence per
// group instead of per op, and runs of same-leaf ops coalesced into
// one buffer-flush — so both simulated throughput and
// CLI-amplification improve with the batch size.
func BatchExp(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	t := &Table{
		Title:  "Extra: Session.Apply group commit vs per-op writes (clustered insert)",
		Header: []string{"batch", "insert Mop/s", "speedup", "CLI-amp", "XBI-amp", "trigger flushes"},
		Note:   fmt.Sprintf("%d threads, per-thread sequential key blocks", s.MainThreads),
	}
	var baseMops float64
	for _, bs := range []int{1, 8, 32} {
		res, trig, err := runBatchInsert(s, bs)
		if err != nil {
			return nil, err
		}
		if bs == 1 {
			baseMops = res.Mops()
		}
		speedup := 0.0
		if baseMops > 0 {
			speedup = res.Mops() / baseMops
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", bs),
			f2(res.Mops()),
			f2(speedup),
			f2(res.CLIAmp()),
			f2(res.XBIAmp()),
			fmt.Sprintf("%d", trig),
		})
	}
	return []*Table{t}, nil
}

// runBatchInsert loads s.Warm scrambled keys, then measures s.Ops
// clustered sequential inserts issued in groups of batchSize (1 =
// plain Session.Put). Returns the measured-phase result and the
// trigger-flush count.
func runBatchInsert(s Scale, batchSize int) (*Result, uint64, error) {
	pool := NewPool(s.Warm+s.Ops, s.MainThreads)
	db, err := cclbtree.NewOnPool(pool, cclbtree.Config{ChunkBytes: 256 << 10})
	if err != nil {
		return nil, 0, err
	}
	defer db.Close()
	threads := s.MainThreads
	sessions := make([]*cclbtree.Session, threads)
	for i := range sessions {
		sessions[i] = db.Session(i % pool.Sockets())
	}

	// Warm identically across batch sizes, per-op.
	var wg sync.WaitGroup
	errs := make([]error, threads)
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := th; i < s.Warm; i += threads {
				if err := sessions[th].Put(loadKey(nil, i), 7); err != nil {
					errs[th] = err
					return
				}
			}
		}(th)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}

	// Measured phase: each thread ingests one contiguous key block far
	// above the warm range, in groups of batchSize.
	perThread := s.Ops / threads
	if perThread == 0 {
		perThread = 1
	}
	base := pool.Stats()
	trigBase := db.Metrics().Counters.TriggerWrites
	start := make([]int64, threads)
	for i, ss := range sessions {
		start[i] = ss.Thread().Now()
	}
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			ss := sessions[th]
			firstKey := uint64(1)<<40 + uint64(th)*uint64(perThread)
			// batchSize 1 is the single-write baseline: a group of one runs
			// exactly as Put does.
			var b cclbtree.Batch
			for i := 0; i < perThread; i++ {
				b.Put(firstKey+uint64(i), 7)
				if b.Len() == batchSize || i == perThread-1 {
					if err := ss.Apply(&b); err != nil {
						errs[th] = err
						return
					}
					b.Reset()
				}
			}
		}(th)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}

	pool.DrainXPBuffers()
	res := &Result{Ops: perThread * threads}
	for i, ss := range sessions {
		if d := ss.Thread().Now() - start[i]; d > res.ElapsedNS {
			res.ElapsedNS = d
		}
	}
	res.Stats = pool.Stats().Sub(base)
	res.UserBytes = uint64(res.Ops) * 16
	res.DRAMBytes, res.PMBytes = db.MemoryUsage()
	trig := db.Metrics().Counters.TriggerWrites - trigBase
	recordPhase(fmt.Sprintf("CCL-batch%d", batchSize), Spec{
		Threads: threads, Warm: s.Warm, Ops: s.Ops,
		Mix: workload.Mix{Insert: 1}, Seed: s.Seed,
	}, res)
	return res, trig, nil
}
