package bench

import (
	"testing"

	"cclbtree"
	"cclbtree/internal/baselines/cclidx"
	"cclbtree/internal/workload"
)

// runReadOnly measures one YCSB-C point: a pure-read Zipfian workload
// at the given thread count.
func runReadOnly(t *testing.T, threads int) *Result {
	t.Helper()
	pool := NewPool(40_000, threads)
	idx, err := cclidx.Factory("CCL", cclbtree.Config{ChunkBytes: 256 << 10})(pool)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	const warm = 20_000
	z := workload.NewZipf(warm, 0.99)
	res, err := Run(pool, idx, Spec{
		Threads: threads,
		Warm:    warm,
		Ops:     20_000,
		Mix:     workload.Mix{Read: 1.0},
		Access:  func(int) workload.Access { return z },
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReadScaling gates the read path's acceptance target at smoke
// scale: reads take no lock, so read-only YCSB-C at 8 threads must
// deliver at least 3x the simulated throughput of the same run at 1
// thread (6.7x when this gate was set). A read path that starts taking
// locks — or retrying pathologically — serializes behind the shared
// cacheline and this ratio collapses; persist.TestRepoReadPathWiring
// asserts the same property statically.
func TestReadScaling(t *testing.T) {
	one := runReadOnly(t, 1)
	eight := runReadOnly(t, 8)
	if eight.Mops() < 3*one.Mops() {
		t.Errorf("reads at 8 threads %.2f Mop/s, at 1 thread %.2f: want >= 3x",
			eight.Mops(), one.Mops())
	}
	// Sanity: the ratio must not be met by a slow first point. One
	// thread ran at 3.08 Mop/s when this gate was set.
	if one.Mops() < 2.0 {
		t.Errorf("single-thread reads %.2f Mop/s, want >= 2.0", one.Mops())
	}
}
