package cclbtree_test

import (
	"bytes"
	"fmt"

	"cclbtree"
	"cclbtree/internal/pmem"
)

func smallPlatform() pmem.Config {
	return pmem.Config{Sockets: 2, DIMMsPerSocket: 2, DeviceBytes: 32 << 20}
}

// The basic write/read/scan flow.
func Example() {
	db, _ := cclbtree.New(cclbtree.Config{Platform: smallPlatform()})
	defer db.Close()
	s := db.Session(0)
	for i := uint64(1); i <= 5; i++ {
		_ = s.Put(i*10, i*100)
	}
	v, ok := s.Get(30)
	fmt.Println(v, ok)

	out := make([]cclbtree.KV, 3)
	n := s.Scan(20, out)
	for _, kv := range out[:n] {
		fmt.Println(kv.Key, kv.Value)
	}
	// Output:
	// 300 true
	// 20 200
	// 30 300
	// 40 400
}

// Surviving a power failure: everything a completed Put wrote is
// recovered by Open.
func ExampleOpen() {
	db, _ := cclbtree.New(cclbtree.Config{Platform: smallPlatform()})
	s := db.Session(0)
	_ = s.Put(7, 700)
	db.Close()

	db.Pool().Crash() // power failure

	db2, _ := cclbtree.Open(db.Pool(), cclbtree.Config{})
	defer db2.Close()
	v, ok := db2.Session(0).Get(7)
	fmt.Println(v, ok)
	// Output: 700 true
}

// Variable-size keys and values through indirection pointers (§4.4 of
// the paper).
func ExampleConfig_varKV() {
	db, _ := cclbtree.New(cclbtree.Config{VarKV: true, Platform: smallPlatform()})
	defer db.Close()
	s := db.Session(0)
	_ = s.PutVar([]byte("user:alice"), []byte(`{"role":"admin"}`))
	_ = s.PutVar([]byte("user:bob"), []byte(`{"role":"dev"}`))
	for _, kv := range s.ScanVar([]byte("user:"), 10) {
		fmt.Printf("%s -> %s\n", kv.Key, kv.Value)
	}
	// Output:
	// user:alice -> {"role":"admin"}
	// user:bob -> {"role":"dev"}
}

// Large values on a fixed-key tree: the value goes out of band as a
// blob, and the leaf stores an 8 B indirection pointer to it (§4.4).
func ExampleSession_PutLargeValue() {
	db, _ := cclbtree.New(cclbtree.Config{Platform: smallPlatform()})
	defer db.Close()
	s := db.Session(0)
	_ = s.PutLargeValue(7, bytes.Repeat([]byte("ab"), 100))
	v, ok := s.GetLargeValue(7)
	fmt.Println(len(v), ok, string(v[:6]))
	// Output: 200 true ababab
}

// Group commit: stage a batch of writes and apply them with a single
// WAL fence. Ops landing on the same leaf also share one buffer-flush,
// which is where the batch path's write-amplification win comes from.
func ExampleSession_Apply() {
	db, _ := cclbtree.New(cclbtree.Config{Platform: smallPlatform()})
	defer db.Close()
	s := db.Session(0)

	var b cclbtree.Batch
	b.Put(10, 100).Put(20, 200).Put(30, 300).Delete(20)
	if err := s.Apply(&b); err != nil {
		fmt.Println(err)
	}
	b.Reset() // the batch is reusable after Apply

	v, ok := s.Get(10)
	fmt.Println(v, ok)
	_, ok = s.Get(20)
	fmt.Println(ok)
	fmt.Println(db.Metrics().Counters.BatchApplies)
	// Output:
	// 100 true
	// false
	// 1
}

// Ascending iteration with a Go 1.23 range-over-func loop. Breaking
// out early is cheap: nothing is held between pages.
func ExampleSession_Range() {
	db, _ := cclbtree.New(cclbtree.Config{Platform: smallPlatform()})
	defer db.Close()
	s := db.Session(0)
	for i := uint64(1); i <= 100; i++ {
		_ = s.Put(i, i*i)
	}
	for k, v := range s.Range(97) {
		if k > 99 {
			break
		}
		fmt.Println(k, v)
	}
	// Output:
	// 97 9409
	// 98 9604
	// 99 9801
}

// Iterating variable-size entries in byte order (requires
// Config.VarKV). A nil start begins at the smallest key.
func ExampleSession_RangeVar() {
	db, _ := cclbtree.New(cclbtree.Config{VarKV: true, Platform: smallPlatform()})
	defer db.Close()
	s := db.Session(0)
	_ = s.PutVar([]byte("b"), []byte("bee"))
	_ = s.PutVar([]byte("a"), []byte("ay"))
	_ = s.PutVar([]byte("c"), []byte("sea"))
	for k, v := range s.RangeVar(nil) {
		fmt.Printf("%s=%s\n", k, v)
	}
	// Output:
	// a=ay
	// b=bee
	// c=sea
}

// Reading the write-amplification counters the paper is about.
func ExampleDB_Metrics() {
	db, _ := cclbtree.New(cclbtree.Config{Platform: smallPlatform()})
	defer db.Close()
	s := db.Session(0)
	for i := uint64(1); i <= 3000; i++ {
		_ = s.Put(i, i)
	}
	db.Pool().DrainXPBuffers()
	st := db.Pool().Stats()
	c := db.Metrics().Counters
	fmt.Println(st.MediaWriteBytes > 0, c.TriggerWrites > 0, c.LoggedWrites > c.TriggerWrites)
	// Output: true true true
}

// A sharded DB: one CCL-BTree per shard, NUMA-pinned round-robin, with
// every operation routed by key hash. Shards=1 (or 0) is today's
// single-tree behaviour.
func ExampleDB() {
	db, _ := cclbtree.New(cclbtree.Config{Shards: 4, Platform: smallPlatform()})
	defer db.Close()
	s := db.Session(0)
	for i := uint64(1); i <= 1000; i++ {
		_ = s.Put(i, i*2)
	}
	v, ok := s.Get(700)
	fmt.Println(db.Shards(), v, ok)
	// Routing is stable: the same key always lands on the same shard.
	fmt.Println(db.ShardFor(700) == db.ShardFor(700))
	// Output:
	// 4 1400 true
	// true
}

// Range over a sharded DB merges the per-shard streams into one
// ordered iterator: hash routing scatters consecutive keys across
// shards, and the merge puts them back in global key order.
func ExampleDB_range() {
	db, _ := cclbtree.New(cclbtree.Config{Shards: 4, Platform: smallPlatform()})
	defer db.Close()
	s := db.Session(0)
	for i := uint64(1); i <= 500; i++ {
		_ = s.Put(i, i)
	}
	n, prev := 0, uint64(0)
	for k := range s.Range(1) {
		if k <= prev {
			fmt.Println("out of order!")
		}
		prev = k
		n++
	}
	fmt.Println(n, prev)
	// Output: 500 500
}
