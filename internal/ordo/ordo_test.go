package ordo

import (
	"sync"
	"testing"
)

func TestMonotonicPerSocket(t *testing.T) {
	c := New(2, 16)
	prev := c.Now(0)
	for i := 0; i < 1000; i++ {
		ts := c.Now(0)
		if ts <= prev {
			t.Fatalf("timestamp went backwards: %d after %d", ts, prev)
		}
		prev = ts
	}
}

func TestNeverZero(t *testing.T) {
	c := New(1, 0)
	if c.Now(0) == 0 {
		t.Fatal("timestamp 0 must be reserved")
	}
}

func TestSkewsDifferAcrossSockets(t *testing.T) {
	c := New(4, 1000)
	seen := map[uint64]bool{}
	for s := 0; s < 4; s++ {
		seen[c.skew[s]] = true
	}
	if len(seen) < 2 {
		t.Fatal("sockets share identical skew; model degenerate")
	}
}

func TestConcurrentIssue(t *testing.T) {
	c := New(2, 8)
	const workers = 8
	const per = 5000
	out := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ts := make([]uint64, per)
			for i := range ts {
				ts[i] = c.Now(w % 2)
			}
			out[w] = ts
		}(w)
	}
	wg.Wait()
	for w, ts := range out {
		for i := 1; i < len(ts); i++ {
			if ts[i] <= ts[i-1] {
				t.Fatalf("worker %d: non-monotonic %d then %d", w, ts[i-1], ts[i])
			}
		}
	}
}
