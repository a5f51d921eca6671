package bench

import (
	"fmt"

	"cclbtree"
	"cclbtree/internal/server"
	"cclbtree/internal/workload"
)

// ShardsExp (extra) measures the serving tier's shard scaling: a
// clustered-insert load driven through internal/server commit lanes
// against a DB of 1, 2, 4 and 8 shards. One shard is today's
// single-tree behaviour behind one commit lane; more shards give the
// router more lanes, each pinned to its shard's home socket and
// advancing its own virtual clock, so aggregate throughput is total
// committed writes over the slowest lane's busy time. The per-shard
// lane attribution lands in the report's shard breakdown.
func ShardsExp(s Scale) ([]*Table, error) {
	s = s.withDefaults()
	t := &Table{
		Title:  "Extra: serving-tier shard scaling (clustered insert via commit lanes)",
		Header: []string{"shards", "insert Mop/s", "speedup", "avg batch", "lane VT ms", "CLI-amp"},
		Note:   fmt.Sprintf("%d closed-loop clients, per-client sequential key blocks", s.MainThreads),
	}
	var baseMops float64
	for _, shards := range []int{1, 2, 4, 8} {
		res, avgBatch, err := runShardedInsert(s, shards)
		if err != nil {
			return nil, err
		}
		if shards == 1 {
			baseMops = res.Mops()
		}
		speedup := 0.0
		if baseMops > 0 {
			speedup = res.Mops() / baseMops
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", shards),
			f2(res.Mops()),
			f2(speedup),
			f2(avgBatch),
			f2(float64(res.ElapsedNS) / 1e6),
			f2(res.CLIAmp()),
		})
	}
	return []*Table{t}, nil
}

// runShardedInsert drives s.Ops clustered inserts from s.MainThreads
// closed-loop clients through a Server over a shards-way DB, and
// returns the measured result (elapsed = slowest commit lane's virtual
// busy time) plus the mean group-commit size.
func runShardedInsert(s Scale, shards int) (*Result, float64, error) {
	pool := NewPool(s.Warm+s.Ops, s.MainThreads)
	db, err := cclbtree.NewOnPool(pool, cclbtree.Config{
		Shards:     shards,
		ChunkBytes: 256 << 10,
	})
	if err != nil {
		return nil, 0, err
	}
	defer db.Close()
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		return nil, 0, err
	}
	defer srv.Close()

	base := pool.Stats()
	load, err := server.RunLoad(srv, server.Workload{
		Clients:   s.MainThreads,
		Ops:       s.Ops,
		Clustered: true,
	})
	if err != nil {
		return nil, 0, err
	}
	if load.Misread > 0 || load.Shed > 0 || load.Writes == 0 {
		return nil, 0, fmt.Errorf("shards=%d: degenerate load: %+v", shards, load)
	}
	pool.DrainXPBuffers()

	res := &Result{
		Ops:       int(load.Writes),
		ElapsedNS: load.WriteVirtualNS,
	}
	res.Stats = pool.Stats().Sub(base)
	res.UserBytes = load.Writes * 16
	res.DRAMBytes, res.PMBytes = db.MemoryUsage()
	for _, l := range srv.Stats().Lanes {
		res.ShardBreakdown = append(res.ShardBreakdown, l.ShardPhase())
	}
	recordPhase(fmt.Sprintf("CCL-%dshard", shards), Spec{
		Threads: s.MainThreads, Ops: s.Ops,
		Mix: workload.Mix{Insert: 1}, Seed: s.Seed,
	}, res)
	return res, load.AvgBatch, nil
}
