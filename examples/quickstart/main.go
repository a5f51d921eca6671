// Quickstart: create a CCL-BTree, write and read some pairs, inspect
// the hardware counters that make this library interesting, and survive
// a power failure.
package main

import (
	"fmt"
	"log"

	"cclbtree"
)

func main() {
	// A tree on the default modeled platform: two sockets, four
	// Optane-like DIMMs each, ADR persistence semantics.
	db, err := cclbtree.New(cclbtree.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Sessions are per-goroutine handles; each owns a per-thread
	// write-ahead log bound to its NUMA socket, as in the paper.
	s := db.Session(0)

	for i := uint64(1); i <= 100_000; i++ {
		if err := s.Put(i, i*10); err != nil {
			log.Fatal(err)
		}
	}
	if v, ok := s.Get(42); ok {
		fmt.Printf("key 42 -> %d\n", v)
	}

	// Range query: ordered, despite unsorted leaf internals.
	out := make([]cclbtree.KV, 5)
	n := s.Scan(1000, out)
	fmt.Printf("scan from 1000: %v\n", out[:n])

	// The write-amplification counters the paper is about (ipmctl-style).
	db.Pool().DrainXPBuffers()
	st := db.Pool().Stats()
	fmt.Printf("CLI-amplification: %.1f\n", st.CLIAmplification())
	fmt.Printf("XBI-amplification: %.1f\n", st.XBIAmplification())
	c := db.Metrics().Counters
	fmt.Printf("trigger writes: %d (unlogged), WAL appends: %d\n",
		c.TriggerWrites, c.LoggedWrites)

	// Power failure and recovery (§3.3): every completed Put survives.
	db.Close()
	db.Pool().Crash()
	db2, err := cclbtree.Open(db.Pool(), cclbtree.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	if v, ok := db2.Session(0).Get(42); ok {
		fmt.Printf("after crash, key 42 -> %d\n", v)
	} else {
		log.Fatal("key lost in crash!")
	}
}
