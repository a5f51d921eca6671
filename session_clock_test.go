package cclbtree

import (
	"testing"

	"cclbtree/internal/pmem"
)

// TestFreshSessionPaysWarmCost preloads a DB through one session, then
// reads one preloaded key through that warm session and another through
// a session created after the preload. Every thread starts at the
// pool's work frontier, so the fresh session's op 0 costs what the warm
// session's read costs, up to one XPBuffer fill: it does not wait behind
// the whole preload.
func TestFreshSessionPaysWarmCost(t *testing.T) {
	pool := pmem.NewPool(pmem.Config{Sockets: 2, DIMMsPerSocket: 2, DeviceBytes: 64 << 20})
	db, err := NewOnPool(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	warm := db.Session(0)
	const keys = 20000
	for k := uint64(1); k <= keys; k++ {
		if err := warm.Put(k*0x9E3779B97F4A7C15>>8|1, k); err != nil {
			t.Fatal(err)
		}
	}
	cost := func(s *Session, k uint64) int64 {
		before := s.Now()
		if v, ok := s.Get(k*0x9E3779B97F4A7C15>>8 | 1); !ok || v != k {
			t.Fatalf("key %d reads %d,%v", k, v, ok)
		}
		return s.Now() - before
	}
	warmNS := cost(warm, 7)
	fresh := db.Session(0)
	freshNS := cost(fresh, keys/2)
	t.Logf("op cost: warm session %d ns, fresh session's op 0 %d ns", warmNS, freshNS)
	if fill := pool.Config().Cost.PMReadMiss; freshNS > warmNS+fill {
		t.Fatalf("fresh session's op 0 cost %d ns, a warm session's %d ns (+%d ns fill allowed)", freshNS, warmNS, fill)
	}
}
