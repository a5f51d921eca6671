package crashtest

import (
	"fmt"
	"math/rand"
	"testing"

	"cclbtree/internal/core"
	"cclbtree/internal/pmem"
)

// driver is one way of issuing the matrix's write stream: groups of
// size ops (keys unique within a group, so each in-flight op has
// exactly one pre-state and one post-state to check), each handed to
// issue. Singles and one-op groups draw the identical stream — the
// write protocol runs them as the same program.
type driver struct {
	name         string
	seed         int64
	groups, size int
	issue        func(w *core.Worker, ops []core.BatchOp) error
	// points caps the crash points sampled per configuration (a full
	// per-boundary sweep is O(total²) work); short is the -short cap.
	points, short int
}

func issueSingle(w *core.Worker, ops []core.BatchOp) error { return w.Write(&ops[0], false) }

var (
	singles  = driver{"singles", 99, 2500, 1, issueSingle, 200, 50}
	groups24 = driver{"groups-of-24", 424242, 150, 24, (*core.Worker).ApplyBatch, 150, 40}
	groups1  = driver{"groups-of-1", 99, 2500, 1, (*core.Worker).ApplyBatch, 100, 25}
)

const (
	// matrixKeys is the key space of the matrix's stream.
	matrixKeys = 300
	// lightMatrixPoints caps a Light row's points per configuration and
	// driver.
	lightMatrixPoints = 12
)

// write is one op of the matrix's stream: value v to key k, v = 0 a
// delete.
type write struct{ k, v uint64 }

// workload yields d's deterministic group sequence over matrixKeys
// keys: one delete in six.
func (d driver) workload(fn func(group []write)) {
	rng := rand.New(rand.NewSource(d.seed))
	for g := 0; g < d.groups; g++ {
		seen := map[uint64]bool{}
		var group []write
		for len(group) < d.size {
			k := uint64(rng.Intn(matrixKeys) + 1)
			if seen[k] {
				continue
			}
			seen[k] = true
			var v uint64
			if rng.Intn(6) != 0 {
				v = uint64(rng.Intn(1<<30) + 1)
			}
			group = append(group, write{k, v})
		}
		fn(group)
	}
}

// FlushBoundaries is the flush-boundary matrix (matrix) on single
// writes.
func FlushBoundaries(t *testing.T, rows ...Row) { matrix(t, rows, singles) }

// FlushBoundariesBatched is the flush-boundary matrix on groups through
// ApplyBatch: groups of 24, and groups of one.
func FlushBoundariesBatched(t *testing.T, rows ...Row) { matrix(t, rows, groups24, groups1) }

// matrix cuts power at successive flushes of a fixed workload — inside
// WAL appends and group commits, (coalesced) trigger flushes, logless
// splits, merges, GC — and verifies after recovery that
//
//  1. every op of every group completed before the failing one is
//     durable with its latest value (the §3.3 durability contract:
//     non-trigger writes persist their log entry, trigger writes
//     persist the whole batch, before returning), and no other key
//     reads as present, and
//  2. each op of the in-flight group is atomic on its own: its key
//     reads as either the previous state or the new one, never garbage
//     — a group is atomic per op, not as a unit.
//
// The sweep runs each write driver in both persistence domains (ADR
// tears the lines flushed but not fenced at the failure, then rolls
// back what did not drain; eADR keeps every store), with and without
// background GC. GC-enabled sweeps rely on the sticky FailWhen trigger:
// the fault may fire first on the GC goroutine (which recovers and
// exits), and stickiness guarantees the workload thread dies at its own
// next flush instead of completing operations on a dead machine. A
// Light row samples lightMatrixPoints points per configuration and
// driver.
func matrix(t *testing.T, rows []Row, drivers ...driver) {
	cases := []struct {
		name string
		mode pmem.Mode
		gc   core.GCPolicy
	}{
		{"adr-gcoff", pmem.ADR, core.GCOff},
		{"eadr-gcoff", pmem.EADR, core.GCOff},
		{"adr-gc", pmem.ADR, core.GCLocalityAware},
		{"eadr-gc", pmem.EADR, core.GCLocalityAware},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, d := range drivers {
				t.Run(d.name, func(t *testing.T) {
					for _, r := range rows {
						t.Run(r.Name, func(t *testing.T) {
							// First, count the workload's flushes (with GC on
							// the count varies run to run; it only bounds the
							// sweep).
							total, _, _ := r.crashPoint(t, d, c.mode, c.gc, 0)
							if total < 100 {
								t.Fatalf("workload too small: %d flushes", total)
							}
							r.sweep(t, total, d.points, d.short, lightMatrixPoints, func(k int64) (bool, string) {
								_, died, lost := r.crashPoint(t, d, c.mode, c.gc, k)
								return died, lost
							})
						})
					}
				})
			}
		})
	}
}

// crashPoint runs d's workload on a fresh directory of r's with power
// failing at the point-th flush from here (0: never), then recovers and
// checks the matrix's contract. It returns the number of flushes the
// run issued, whether the power failed, and the first key recovery got
// wrong ("" when none).
func (r Row) crashPoint(t *testing.T, d driver, mode pmem.Mode, gc core.GCPolicy, point int64) (int64, bool, string) {
	t.Helper()
	pool := newPool(mode, 4<<20)
	opts := r.options(8<<10, gc)
	tr, w := r.create(t, pool, opts)

	ref := map[uint64]uint64{} // state after the last COMPLETED group
	var inFlight []write       // the group in flight at the crash
	completed := 0

	// FlushCalls counts every Flush/Persist call in both domains (eADR
	// moves no data but still counts) since pool creation, matching
	// FaultPoint.Seq numbering; the point is relative to here.
	base := pool.FlushCalls()
	ops := make([]core.BatchOp, d.size)
	crashed := pmem.Survive(func() {
		if point > 0 {
			armAt(pool, point)
		}
		d.workload(func(group []write) {
			inFlight = group
			for i, op := range group {
				ops[i] = r.op(op.k, op.v)
			}
			if err := d.issue(w, ops); err != nil {
				t.Error(err)
				panic(pmem.PowerFailure{})
			}
			for _, op := range group {
				if op.v == 0 {
					delete(ref, op.k)
				} else {
					ref[op.k] = op.v
				}
			}
			inFlight = nil
			completed++
		})
	})
	// Join background GC before losing power: the fault may have fired
	// there (the GC goroutine recovers and exits), or — when the point
	// lies beyond this run's flush count — GC may still be running.
	tr.Freeze()
	flushes := pool.FlushCalls() - base
	if !crashed {
		// The counting run, or a fault point beyond this run's flush
		// count (counts vary slightly run to run): nothing to check.
		pool.FailWhen(nil)
		return flushes, false, ""
	}
	crash(pool, point)
	tr2, _ := r.open(t, pool, opts, 1)
	defer tr2.Freeze()
	w2 := tr2.NewWorker(0)

	// ref reflects every group BEFORE the one in flight, so it is also
	// the in-flight ops' pre-state; each in-flight key reads as its pre-
	// or its post-state, every other key as ref holds it.
	post := map[uint64]uint64{}
	for _, op := range inFlight {
		post[op.k] = op.v
	}
	for k := uint64(1); k <= matrixKeys; k++ {
		got, ok := r.read(w2, k)
		pre, preOK := ref[k]
		if got == pre && ok == preOK {
			continue
		}
		if v, in := post[k]; in && got == v && ok == (v != 0) {
			continue
		}
		return flushes, true, fmt.Sprintf("key %d reads (%d,%v) after %d groups; completed (%d,%v), in flight %v",
			k, got, ok, completed, pre, preOK, post[k])
	}
	return flushes, true, ""
}
