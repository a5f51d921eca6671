package bench

import "testing"

// TestBatchSpeedup gates the batch-path acceptance target at smoke
// scale: Session.Apply at batch=32 must beat per-op Put on simulated
// throughput AND on CLI amplification for the clustered-insert
// workload. The full-scale numbers live in BENCH_batch.json; this
// keeps the ordering from regressing silently.
//
// One session, so the run is a pure function of the code: with several,
// virtual time depends on how the host interleaves them (contention
// penalties on the shared right-most leaf, the DIMMs' shared busy
// timeline) and the throughput ordering flakes. The log stays under two
// chunks at this scale, so background GC never starts either.
func TestBatchSpeedup(t *testing.T) {
	s := Scale{Warm: 2000, Ops: 4000, MainThreads: 1, Seed: 1}.withDefaults()
	perOp, perOpTrig, err := runBatchInsert(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	batched, batchedTrig, err := runBatchInsert(s, 32)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Mops() <= perOp.Mops() {
		t.Errorf("batch=32 throughput %.2f Mop/s not above batch=1 %.2f",
			batched.Mops(), perOp.Mops())
	}
	if batched.CLIAmp() >= perOp.CLIAmp() {
		t.Errorf("batch=32 CLI-amp %.2f not below batch=1 %.2f",
			batched.CLIAmp(), perOp.CLIAmp())
	}
	if batchedTrig >= perOpTrig {
		t.Errorf("batch=32 trigger flushes %d not below batch=1 %d",
			batchedTrig, perOpTrig)
	}
}
