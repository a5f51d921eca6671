// amplification: measure the CLI- and XBI-amplification of YOUR access
// pattern on CCL-BTree versus a flush-per-insert baseline — the
// paper's §2 motivation experiment as a tool.
//
//	go run ./examples/amplification -pattern random
//	go run ./examples/amplification -pattern sequential
//	go run ./examples/amplification -pattern zipf
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"cclbtree"
	"cclbtree/internal/workload"
)

func main() {
	pattern := flag.String("pattern", "random", "random | sequential | zipf")
	n := flag.Int("n", 200_000, "operations")
	flag.Parse()

	type variant struct {
		name string
		cfg  cclbtree.Config
	}
	variants := []variant{
		{"no buffering (Base)", cclbtree.Config{Nbatch: -1, GC: cclbtree.GCOff}},
		{"CCL-BTree (Nbatch=2)", cclbtree.Config{ChunkBytes: 256 << 10}},
		{"CCL-BTree (Nbatch=4)", cclbtree.Config{Nbatch: 4, ChunkBytes: 256 << 10}},
	}

	fmt.Printf("%-22s %10s %10s %12s   %s\n", "variant", "CLI-amp", "XBI-amp", "media MB", "media by scope")
	for _, v := range variants {
		db, err := cclbtree.New(v.cfg)
		if err != nil {
			log.Fatal(err)
		}
		s := db.Session(0)
		rng := rand.New(rand.NewSource(7))
		zipf := workload.NewZipf(uint64(*n), 0.9)
		key := func(i int) uint64 {
			switch *pattern {
			case "sequential":
				return uint64(i + 1)
			case "zipf":
				return zipf.Next(rng)
			default:
				return rng.Uint64()&(1<<40-1) | 1
			}
		}
		// Warm half, measure half.
		for i := 0; i < *n/2; i++ {
			if err := s.Put(key(i), 7); err != nil {
				log.Fatal(err)
			}
		}
		db.Pool().ResetStats()
		for i := *n / 2; i < *n; i++ {
			if err := s.Put(key(i), 9); err != nil {
				log.Fatal(err)
			}
		}
		db.Pool().DrainXPBuffers()
		st := db.Pool().Stats()
		// The Session.Put path declares its payload via AddUserBytes, so
		// the Stats helpers compute both amplification factors; the
		// per-scope breakdown shows *which component* wrote the media
		// bytes (leaf buffers vs WAL appends vs splits vs GC).
		fmt.Printf("%-22s %10.2f %10.2f %12.2f   %v\n",
			v.name,
			st.CLIAmplification(),
			st.XBIAmplification(),
			float64(st.MediaWriteBytes)/1e6,
			st.ScopeMediaBytes())
		db.Close()
	}
	fmt.Println("\nXBI-amp = media bytes per user byte; lower is better (paper §2.1).")
	fmt.Println("The by-scope map attributes media bytes to the causing component:")
	fmt.Println("buffered inserts turn random leaf flushes (leafbuf) into sequential")
	fmt.Println("wal bytes, which is precisely the trade the paper's §3.2 makes.")
}
