package bench

import (
	"fmt"

	"cclbtree"
	"cclbtree/internal/pmem"
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
	sessions, clocks := spread(pool, threads, db.Session)

	// Warm identically across batch sizes, per-op.
	err = pmem.Parallel(threads, func(th int) error {
		for i := th; i < s.Warm; i += threads {
			if err := sessions[th].Put(loadKey(nil, i), 7); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	// Measured phase: each thread ingests one contiguous key block far
	// above the warm range, in groups of batchSize.
	perThread := max(s.Ops/threads, 1)
	trigBase := db.Metrics().Counters.TriggerWrites
	res, err := measure(pool, clocks, func(th int) error {
		firstKey := uint64(1)<<40 + uint64(th)*uint64(perThread)
		// batchSize 1 is the single-write baseline: a group of one runs
		// exactly as Put does.
		var b cclbtree.Batch
		for i := 0; i < perThread; i++ {
			b.Put(firstKey+uint64(i), 7)
			if b.Len() == batchSize || i == perThread-1 {
				if err := sessions[th].Apply(&b); err != nil {
					return err
				}
				b.Reset()
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	res.Ops = perThread * threads
	res.UserBytes = uint64(res.Ops) * 16
	trig := db.Metrics().Counters.TriggerWrites - trigBase
	res.finish(fmt.Sprintf("CCL-batch%d", batchSize), Spec{
		Threads: threads, Warm: s.Warm, Ops: s.Ops,
		Mix: workload.Mix{Insert: 1}, Seed: s.Seed,
	}, db)
	return res, trig, nil
}
