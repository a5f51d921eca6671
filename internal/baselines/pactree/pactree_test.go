package pactree

import (
	"testing"

	"cclbtree/internal/baselines/prim"
	"cclbtree/internal/index/indextest"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, Factory(), indextest.Options{})
}

func TestLeavesStaySorted(t *testing.T) {
	pool := indextest.Pool()
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	h := tr.NewHandle(0)
	rng := uint64(31)
	for i := 0; i < 20000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		_ = h.Upsert(rng%(1<<30)|1, 1)
	}
	// Walk the whole chain; every leaf must be internally sorted and
	// ordered against its successor.
	var n prim.Node
	n.Read(h.Thread(), tr.Floor(1))
	var prev uint64
	for {
		for i := 0; i < n.Count(); i++ {
			if n.Key(i) <= prev {
				t.Fatalf("leaf disorder: %d after %d", n.Key(i), prev)
			}
			prev = n.Key(i)
		}
		next := n.Link()
		if next.IsNil() {
			break
		}
		n.Read(h.Thread(), next)
	}
}
