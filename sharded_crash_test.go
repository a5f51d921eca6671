package cclbtree

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cclbtree/internal/memtree"
	"cclbtree/internal/pmem"
	"cclbtree/internal/torture"
)

// TestShardedCrashDurablePrefix is the sharded-DB crash property test:
// concurrent writers spray upserts and deletes across every shard of
// one DB, the whole pool loses power mid-workload (every shard's
// in-flight state dies at once), the DB is reopened with shard
// auto-detection, and each shard's recovered tree must independently
// satisfy the durable-prefix linearizability oracle against the slice
// of the history that routed to it, ordered by one invoke/return
// sequence the writers share. Rounds chain: each continues on the
// recovered image, so crash-recover-crash sequences and recovered-clock
// resume are exercised per shard.
func TestShardedCrashDurablePrefix(t *testing.T) {
	const (
		shards   = 4
		writers  = 8
		opsPer   = 400
		keySpace = 512
		rounds   = 5
	)
	pool := pmem.NewPool(pmem.Config{
		Sockets: 2, DIMMsPerSocket: 1, DeviceBytes: 32 << 20, StrictPersist: true,
	})
	db, err := NewOnPool(pool, Config{Shards: shards, ChunkBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}

	master := rand.New(rand.NewSource(7))
	baseline := make([]map[uint64]uint64, shards)
	for i := range baseline {
		baseline[i] = map[uint64]uint64{}
	}
	var flushBudget int64
	crashes := 0
	openRNG := rand.New(rand.NewSource(8))
	openFlushes, openCrashes := int64(0), 0
	var order atomic.Uint64 // the writers' shared invoke/return sequence

	for round := 0; round < rounds; round++ {
		seeds := make([]int64, writers)
		for i := range seeds {
			seeds[i] = master.Int63()
		}
		flushStart := pool.FlushCalls()
		// Round 0 calibrates the flush budget (quiescent crash); later
		// rounds fire mid-workload at a uniform flush ordinal.
		if round > 0 && flushBudget > 0 {
			n := 1 + master.Int63n(flushBudget)
			var matched atomic.Int64
			pool.FailWhen(func(pmem.FaultPoint) bool { return matched.Add(1) == n })
		}

		// hist[w][shard] is writer w's op log for one shard: the same
		// concurrent history, partitioned by where the router sent it.
		hist := make([][][]torture.Op, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			hist[w] = make([][]torture.Op, shards)
			wg.Add(1)
			go func(wid int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seeds[wid]))
				sess := db.Session(wid % pool.Sockets())
				for seq := 0; seq < opsPer; seq++ {
					if pool.FaultFired() {
						return // machine is dead; no new invocations
					}
					key := 1 + rng.Uint64()%keySpace
					shard := db.ShardFor(key)
					op := torture.Op{Worker: wid, Seq: seq, Key: key}
					if rng.Intn(4) < 3 {
						op.Kind = torture.OpUpsert
						op.Value = uint64(round+1)<<40 | uint64(wid+1)<<28 | uint64(seq+1)
					} else {
						op.Kind = torture.OpDelete
					}
					op.Invoke = order.Add(1)
					var err error
					died := pmem.Survive(func() {
						if op.Kind == torture.OpUpsert {
							err = sess.Put(op.Key, op.Value)
						} else {
							err = sess.Delete(op.Key)
						}
					})
					if err != nil {
						t.Error(err)
						return
					}
					if !died {
						op.Return = order.Add(1)
						op.Done = true
					}
					hist[wid][shard] = append(hist[wid][shard], op)
					if died {
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		// Power-failure order: freeze what can be frozen (dies quietly
		// if the fault already fired), disarm, lose power.
		crashed := pool.FaultFired()
		if crashed {
			crashes++
		}
		freezeQuiet(db)
		pool.FailWhen(nil)
		pool.Crash()
		if round == 0 {
			flushBudget = pool.FlushCalls() - flushStart
		}

		// Odd rounds cut power inside recovery too, then crash and
		// reopen. The fault lands in the first half of the last
		// recovery's flush span: recoveries vary, and one shorter than
		// the last would otherwise finish before it.
		openStart := pool.FlushCalls()
		var rec *DB
		if round%2 == 1 {
			at := openStart + 1 + openRNG.Int63n(openFlushes/2)
			pool.FailWhen(func(fp pmem.FaultPoint) bool { return fp.Seq == at })
			died := pmem.Survive(func() { rec, err = Open(pool, Config{}) })
			pool.FailWhen(nil)
			if died {
				openCrashes++
				pool.Crash()
				openStart = pool.FlushCalls()
			}
		}
		if rec == nil && err == nil {
			rec, err = Open(pool, Config{})
		}
		if err != nil {
			t.Fatalf("round %d (crashed=%v): recovery rejected the crash image: %v", round, crashed, err)
		}
		openFlushes = pool.FlushCalls() - openStart
		if rec.Shards() != shards {
			t.Fatalf("round %d: auto-detected %d shards, want %d", round, rec.Shards(), shards)
		}

		// Snapshot the recovered state, partitioned per shard.
		recovered := make([]map[uint64]uint64, shards)
		for i := range recovered {
			recovered[i] = map[uint64]uint64{}
		}
		snap := rec.Session(0)
		for k := uint64(1); k <= keySpace; k++ {
			if v, ok := snap.Get(k); ok {
				recovered[rec.ShardFor(k)][k] = v
			}
		}

		// Each shard independently satisfies the durable-prefix oracle
		// against its slice of the history.
		for shard := 0; shard < shards; shard++ {
			perWorker := make([][]torture.Op, writers)
			for w := 0; w < writers; w++ {
				perWorker[w] = hist[w][shard]
			}
			vs := torture.CheckDurablePrefix(baseline[shard], perWorker, recovered[shard], round)
			for _, v := range vs {
				t.Errorf("shard %d (crashed=%v): %v", shard, crashed, v)
			}
			baseline[shard] = recovered[shard]
		}
		if t.Failed() {
			t.FailNow()
		}
		db = rec
	}
	if crashes == 0 {
		t.Fatal("no round crashed mid-workload; the test exercised nothing")
	}
	if openCrashes == 0 {
		t.Fatal("no round crashed inside recovery")
	}

	// Post-recovery memtree comparison: replay a deterministic mixed
	// phase into both the recovered sharded DB and an in-DRAM oracle
	// seeded from the recovered state, then the merged cross-shard
	// Range must agree with the oracle exactly.
	oracle := &memtree.Tree[uint64]{}
	sess := db.Session(0)
	for k := uint64(1); k <= keySpace; k++ {
		if v, ok := sess.Get(k); ok {
			oracle.Put(k, v)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		key := 1 + rng.Uint64()%(2*keySpace)
		if rng.Intn(3) == 0 {
			if err := sess.Delete(key); err != nil {
				t.Fatal(err)
			}
			oracle.Delete(key)
		} else {
			v := uint64(rounds+2)<<40 | uint64(i+1)
			if err := sess.Put(key, v); err != nil {
				t.Fatal(err)
			}
			oracle.Put(key, v)
		}
	}
	got := map[uint64]uint64{}
	for k, v := range sess.Range(1) {
		got[k] = v
	}
	want := map[uint64]uint64{}
	oracle.Ascend(1, func(k, v uint64) bool {
		want[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("post-recovery Range has %d keys, memtree oracle has %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("post-recovery key %d: DB %d, memtree oracle %d", k, got[k], v)
		}
	}
	db.Close()
}

// freezeQuiet freezes the DB, swallowing the PowerFailure panic a
// frozen-too-late background flush raises when the fault already fired.
func freezeQuiet(db *DB) { pmem.Survive(db.Close) }
