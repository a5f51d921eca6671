// Package torture is the concurrent crash-recovery harness: seeded
// randomized workloads over the public cclbtree.DB with power failures
// injected at randomized and adversarially chosen flush points,
// followed by recovery and a durable-prefix linearizability check
// (oracle.go).
//
// One Run is a sequence of rounds against a single persistent image of
// Config.Shards shard trees. Each round arms a crash plan
// (crashplan.go), drives N worker goroutines, each through one
// Session, that record per-op histories with invoke/return points on
// one sequence the workers share (history.go), crashes the modeled
// machine — tearing every pending XPLine of an ADR crash, rolling back
// the rest — recovers with cclbtree.OpenWithStats (in some rounds
// crashing inside recovery too), and checks the recovered state against
// the history. The next round continues on the recovered DB, so the
// harness also exercises repeated crash-recover-crash sequences (which
// is how the recovery clock-resume bug was found), Session routing,
// multi-shard Apply, the cross-shard Range merge and parallel shard
// recovery.
//
// Determinism: the workload, per-worker op streams, and crash plans
// derive entirely from Config.Seed, so a failing seed re-runs the same
// schedule of writes and the same fault placement. Goroutine
// interleaving is the one nondeterministic input; single-threaded
// configurations replay exactly.
package torture

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"cclbtree"
	"cclbtree/internal/pmem"
)

// Config parameterizes one torture run. The zero value is completed by
// withDefaults; Seed 0 is a valid (and distinct) seed.
type Config struct {
	Seed         int64  `json:"seed"`
	Threads      int    `json:"threads"`
	Rounds       int    `json:"rounds"`
	OpsPerThread int    `json:"ops_per_thread"`
	KeySpace     uint64 `json:"key_space"`
	EADR         bool   `json:"eadr"`
	GC           string `json:"gc"` // "locality", "naive", "off"
	// Shards is the DB's shard count (0 and 1 both mean one tree).
	// Every recovery auto-detects it, and the harness checks the count
	// it finds.
	Shards      int   `json:"shards,omitempty"`
	Sockets     int   `json:"sockets"`
	DeviceBytes int64 `json:"device_bytes"`
	ChunkBytes  int   `json:"chunk_bytes"`
	// BatchSize > 1 routes writes through Session.Apply group commits
	// of that size (reads still execute per-op). All ops of one batch
	// share invoke/return ticks; crash atomicity stays per-op, so the
	// durable-prefix oracle applies unchanged. 0 or 1 keeps the per-op
	// write path.
	BatchSize int `json:"batch_size,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.Rounds == 0 {
		c.Rounds = 6
	}
	if c.OpsPerThread == 0 {
		c.OpsPerThread = 400
	}
	if c.KeySpace == 0 {
		c.KeySpace = 256
	}
	if c.GC == "" {
		c.GC = "locality"
	}
	if c.Sockets == 0 {
		c.Sockets = 2
	}
	if c.DeviceBytes == 0 {
		c.DeviceBytes = 16 << 20
	}
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 8 << 10 // small chunks so GC triggers under test-sized workloads
	}
	return c
}

func (c Config) gcPolicy() (cclbtree.GCPolicy, error) {
	switch c.GC {
	case "locality":
		return cclbtree.GCLocalityAware, nil
	case "naive":
		return cclbtree.GCNaive, nil
	case "off":
		return cclbtree.GCOff, nil
	}
	return 0, fmt.Errorf("torture: unknown gc policy %q", c.GC)
}

// RoundReport summarizes one crash-recover round.
type RoundReport struct {
	Round   int    `json:"round"`
	Plan    string `json:"plan"`
	Crashed bool   `json:"crashed"` // fault fired mid-workload (vs quiescent crash)
	// RecoveryCrashed: a second fault fired inside the recovery that
	// followed, and the DB was recovered again.
	RecoveryCrashed bool  `json:"recovery_crashed,omitempty"`
	Flushes         int64 `json:"flushes"`
	Completed       int   `json:"completed"`
	InFlight        int   `json:"in_flight"`
	Replayed        int   `json:"replayed"`
	Dropped         int   `json:"dropped"`
	// TornLines counts the lines torn at the round's ADR crashes, the
	// one inside recovery included.
	TornLines int `json:"torn_lines"`
}

// Result is one Run's outcome. Violations non-empty means the oracle
// caught a durability or atomicity violation.
type Result struct {
	Config       Config        `json:"config"`
	Rounds       []RoundReport `json:"rounds"`
	OpsCompleted int64         `json:"ops_completed"`
	Crashes      int           `json:"crashes"`
	Violations   []Violation   `json:"violations,omitempty"`
}

// Failed reports whether the oracle found violations.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Run executes one torture run to completion (or to the first round
// with violations, which ends the run early — later rounds would
// build on a state already known to be wrong).
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	gc, err := cfg.gcPolicy()
	if err != nil {
		return nil, err
	}
	mode := pmem.ADR
	if cfg.EADR {
		mode = pmem.EADR
	}
	pool := pmem.NewPool(pmem.Config{
		Sockets:        cfg.Sockets,
		DIMMsPerSocket: 1,
		DeviceBytes:    cfg.DeviceBytes,
		Mode:           mode,
		StrictPersist:  true,
	})
	dbCfg := cclbtree.Config{Shards: cfg.Shards, GC: gc, ChunkBytes: cfg.ChunkBytes}
	db, err := cclbtree.NewOnPool(pool, dbCfg)
	if err != nil {
		return nil, err
	}
	dbCfg.Shards = 0 // every recovery auto-detects the count

	master := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{Config: cfg}
	baseline := map[uint64]uint64{}
	everWritten := map[uint64]map[uint64]bool{}
	var flushBudget int64
	// Whether and where a power failure also cuts into recovery is drawn
	// from a source of its own, so the op streams and crash plans that
	// master yields stay those of the seed. Until a recovery has been
	// counted, the fault lands within its first 64 flushes.
	recoveryCrashes := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	recoveryFlushes := int64(64)
	// order is the harness's own clock: every op draws its invoke and
	// return points from it, so the oracles judge the order the workers
	// observed, not the tree's timestamps.
	var order atomic.Uint64

	for round := 0; round < cfg.Rounds; round++ {
		plan := planForRound(master, round, flushBudget)
		// Per-worker op seeds are drawn from the master BEFORE any
		// goroutine runs, so the op streams depend only on Config.Seed.
		seeds := make([]int64, cfg.Threads)
		for i := range seeds {
			seeds[i] = master.Int63()
		}
		tearSeed := master.Int63()

		flushStart := pool.FlushCalls()
		pool.FailWhen(plan.predicate())

		histories := make([][]Op, cfg.Threads)
		sessions := make([]*cclbtree.Session, cfg.Threads)
		for i := range sessions {
			sessions[i] = db.Session(i % cfg.Sockets)
		}
		err := pmem.Parallel(cfg.Threads, func(wid int) error {
			return runWorker(pool, sessions[wid], wid, round, seeds[wid], cfg, &order, &histories[wid])
		})
		if err != nil {
			return nil, fmt.Errorf("torture: round %d worker: %w", round, err)
		}

		// Teardown in power-failure order: stop background activity,
		// tear what was in flight, disarm, then lose power.
		crashed := pool.FaultFired()
		db.Close()
		torn := 0
		if crashed {
			torn = pool.TearPending(tearSeed)
		}
		pool.FailWhen(nil)
		pool.Crash()

		report := RoundReport{Round: round, Plan: plan.String(), Crashed: crashed}
		rec, st, err := openCrashing(pool, dbCfg, cfg.Threads, tearSeed, recoveryCrashes, &recoveryFlushes, &report)
		if err == nil && rec.Shards() != max(cfg.Shards, 1) {
			err = fmt.Errorf("auto-detected %d shards, want %d", rec.Shards(), max(cfg.Shards, 1))
		}
		if err != nil {
			// The harness injects no corruption, so a rejected image is
			// itself a crash-consistency failure.
			res.Violations = append(res.Violations, Violation{
				Round: round, Reason: fmt.Sprintf("recovery rejected the crash image: %v", err),
			})
			res.Rounds = append(res.Rounds, report)
			return res, nil
		}

		h := newHistory(histories)
		completed, inFlight := 0, 0
		for i := range h.ops {
			if h.ops[i].Done {
				completed++
			} else {
				inFlight++
			}
		}
		res.OpsCompleted += int64(completed)
		if crashed {
			res.Crashes++
		}
		for _, op := range h.ops {
			if op.isWrite() {
				if everWritten[op.Key] == nil {
					everWritten[op.Key] = map[uint64]bool{}
				}
				everWritten[op.Key][op.writtenValue()] = true
			}
		}

		byLookup, byScan := snapshot(rec, cfg.KeySpace)
		vs := checkDurablePrefix(baseline, h, byLookup, round)
		vs = append(vs, checkReads(h, everWritten, round)...)
		vs = append(vs, checkReadLinearizability(baseline, h, round)...)
		vs = append(vs, checkScanAgreement(byLookup, byScan, round)...)

		report.Flushes = pool.FlushCalls() - flushStart
		report.Completed, report.InFlight = completed, inFlight
		report.Replayed, report.Dropped = st.EntriesReplayed, st.EntriesDropped
		report.TornLines += torn
		res.Rounds = append(res.Rounds, report)
		if plan.Kind == "calibrate" || flushBudget == 0 {
			flushBudget = pool.FlushCalls() - flushStart
		}
		if len(vs) > 0 {
			res.Violations = append(res.Violations, vs...)
			return res, nil
		}
		baseline = byLookup
		db = rec
	}
	db.Close()
	return res, nil
}

// openCrashing recovers the crashed pool. In one round in three it
// first arms a power failure at a flush drawn from the first half of
// the last recovery's span (*flushes): recoveries vary, and one shorter
// than the last would otherwise finish before the fault. When
// OpenWithStats carries the failure back, it tears what recovery left
// pending, crashes, records the crash in report and recovers again: a
// crash inside recovery must lose nothing either. *flushes becomes the
// completed recovery's flush count.
func openCrashing(pool *pmem.Pool, cfg cclbtree.Config, threads int, tearSeed int64, rng *rand.Rand, flushes *int64, report *RoundReport) (*cclbtree.DB, *cclbtree.RecoveryStats, error) {
	if rng.Intn(3) == 0 {
		at := pool.FlushCalls() + 1 + rng.Int63n(max(*flushes/2, 1))
		pool.FailWhen(func(fp pmem.FaultPoint) bool { return fp.Seq == at })
		var db *cclbtree.DB
		var st *cclbtree.RecoveryStats
		var err error
		died := pmem.Survive(func() { db, st, err = cclbtree.OpenWithStats(pool, cfg, threads) })
		if !died {
			pool.FailWhen(nil)
			return db, st, err
		}
		report.RecoveryCrashed = true
		report.TornLines += pool.TearPending(tearSeed)
		pool.FailWhen(nil)
		pool.Crash()
	}
	base := pool.FlushCalls()
	db, st, err := cclbtree.OpenWithStats(pool, cfg, threads)
	*flushes = max(pool.FlushCalls()-base, 1)
	return db, st, err
}

// runWorker drives one goroutine's share of the round's workload
// through its session, recording every operation. It returns a non-nil
// error only for real tree errors (allocation failure); a simulated
// power failure ends the loop normally with the dying op left
// in-flight. Invoke and return points are drawn from order around each
// call.
func runWorker(pool *pmem.Pool, s *cclbtree.Session, wid, round int, seed int64, cfg Config, order *atomic.Uint64, out *[]Op) error {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, 0, cfg.OpsPerThread)
	defer func() { *out = ops }()

	// Batched mode: writes stage here and go through one Apply group
	// commit per cfg.BatchSize. An op is "invoked" only when its Apply
	// starts — staged ops the crash strands before that were never
	// issued to the DB and are not recorded.
	batched := cfg.BatchSize > 1
	var staged []Op
	var batch cclbtree.Batch
	applyStaged := func() error {
		if len(staged) == 0 {
			return nil
		}
		invoke := order.Add(1)
		var err error
		died := pmem.Survive(func() { err = s.Apply(&batch) })
		if err != nil {
			return err
		}
		ret := order.Add(1)
		for i := range staged {
			staged[i].Invoke = invoke
			if !died {
				staged[i].Return = ret
				staged[i].Done = true
			}
			ops = append(ops, staged[i])
		}
		staged = staged[:0]
		batch.Reset()
		return nil
	}

	var scanBuf [32]cclbtree.KV
	for seq := 0; seq < cfg.OpsPerThread; seq++ {
		if pool.FaultFired() {
			break // the machine is dead; no new invocations
		}
		key := 1 + rng.Uint64()%cfg.KeySpace
		op := Op{Worker: wid, Seq: seq, Key: key}
		switch r := rng.Intn(100); {
		case r < 60:
			op.Kind = OpUpsert
			op.Value = uniqueValue(round, wid, seq)
		case r < 75:
			op.Kind = OpDelete
		case r < 95:
			op.Kind = OpLookup
		default:
			op.Kind = OpScan
		}

		if batched && op.isWrite() {
			staged = append(staged, op)
			if op.Kind == OpDelete {
				batch.Delete(op.Key)
			} else {
				batch.Put(op.Key, op.Value)
			}
			if len(staged) >= cfg.BatchSize {
				if err := applyStaged(); err != nil {
					return err
				}
			}
			continue
		}

		op.Invoke = order.Add(1)
		var err error
		died := pmem.Survive(func() {
			switch op.Kind {
			case OpUpsert:
				err = s.Put(op.Key, op.Value)
			case OpDelete:
				err = s.Delete(op.Key)
			case OpLookup:
				op.Value, op.Found = s.Get(op.Key)
			case OpScan:
				n := s.Scan(op.Key, scanBuf[:])
				// Record the observed pairs (copied out of the reused
				// buffer) so the read oracle can attribute each one.
				op.Observed = make([][2]uint64, n)
				for i, kv := range scanBuf[:n] {
					op.Observed[i] = [2]uint64{kv.Key, kv.Value}
				}
			}
		})
		if err != nil {
			return err
		}
		if !died {
			op.Return = order.Add(1)
			op.Done = true
		}
		ops = append(ops, op)
		if died {
			break
		}
	}
	// Flush the leftover staged group — unless the machine already died,
	// in which case those ops were never invoked and are dropped.
	if batched && !pool.FaultFired() {
		if err := applyStaged(); err != nil {
			return err
		}
	}
	return nil
}

// uniqueValue makes every written value globally unique across the
// whole run, so a recovered word identifies the exact write that
// produced it. Stays below core.MaxValue.
func uniqueValue(round, wid, seq int) uint64 {
	return uint64(round+1)<<40 | uint64(wid+1)<<28 | uint64(seq+1)
}

// snapshot reads the recovered DB's full state twice — once by per-key
// Gets, once through the merged cross-shard Range — for the oracle and
// the read-path agreement check. Value maps omit absent keys.
func snapshot(db *cclbtree.DB, keySpace uint64) (byLookup, byScan map[uint64]uint64) {
	s := db.Session(0)
	byLookup = make(map[uint64]uint64)
	for k := uint64(1); k <= keySpace; k++ {
		if v, ok := s.Get(k); ok {
			byLookup[k] = v
		}
	}
	byScan = make(map[uint64]uint64, len(byLookup))
	for k, v := range s.Range(1) {
		byScan[k] = v
	}
	return byLookup, byScan
}
