// ycsb: drive a CCL-BTree with YCSB-style workload mixes at a chosen
// thread count and report simulated throughput plus the PM hardware
// counters — a miniature of the paper's Fig 11.
//
//	go run ./examples/ycsb -workload insert-intensive -threads 24
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"

	"cclbtree"
	"cclbtree/internal/workload"
)

func main() {
	wl := flag.String("workload", "insert-intensive",
		"insert-only | insert-intensive | read-intensive | read-only | scan-insert")
	threads := flag.Int("threads", 24, "worker goroutines (simulated threads)")
	warm := flag.Int("warm", 100_000, "keys loaded before measuring")
	ops := flag.Int("ops", 100_000, "measured operations")
	zipf := flag.Float64("zipf", 0, "Zipfian skew for reads (0 = uniform)")
	flag.Parse()

	mixes := map[string]workload.Mix{
		"insert-only":      workload.MixInsertOnly,
		"insert-intensive": workload.MixInsertIntensive,
		"read-intensive":   workload.MixReadIntensive,
		"read-only":        workload.MixReadOnly,
		"scan-insert":      workload.MixScanInsert,
	}
	mix, ok := mixes[*wl]
	if !ok {
		log.Fatalf("unknown workload %q", *wl)
	}
	if mix.ScanLen == 0 {
		mix.ScanLen = 100
	}

	db, err := cclbtree.New(cclbtree.Config{ChunkBytes: 256 << 10})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	pool := db.Pool()

	key := func(i int) uint64 { return workload.Key(uint64(i + 1)) }

	sessions := make([]*cclbtree.Session, *threads)
	for i := range sessions {
		sessions[i] = db.Session(i % pool.Sockets())
	}

	// Load.
	var wg sync.WaitGroup
	for t := 0; t < *threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			s := sessions[t]
			for i := t; i < *warm; i += *threads {
				if err := s.Put(key(i), uint64(i)+1); err != nil {
					log.Fatal(err)
				}
			}
		}(t)
	}
	wg.Wait()

	// Measure.
	start := make([]int64, *threads)
	for t, s := range sessions {
		start[t] = s.Thread().Now()
	}
	pool.ResetStats()
	perThread := *ops / *threads
	for t := 0; t < *threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			s := sessions[t]
			rng := rand.New(rand.NewSource(int64(t + 1)))
			var access workload.Access = workload.Uniform{N: uint64(*warm)}
			if *zipf > 0 {
				access = workload.NewZipf(uint64(*warm), *zipf)
			}
			scanOut := make([]cclbtree.KV, mix.ScanLen)
			cursor := *warm + t
			for i := 0; i < perThread; i++ {
				switch mix.Pick(rng) {
				case workload.OpInsert:
					_ = s.Put(key(cursor), uint64(cursor))
					cursor += *threads
				case workload.OpRead:
					_, _ = s.Get(access.Next(rng))
				case workload.OpUpdate:
					_ = s.Put(access.Next(rng), rng.Uint64()|1)
				case workload.OpScan:
					_ = s.Scan(access.Next(rng), scanOut)
				case workload.OpDelete:
					_ = s.Delete(access.Next(rng))
				}
			}
		}(t)
	}
	wg.Wait()

	var elapsed int64
	for t, s := range sessions {
		if d := s.Thread().Now() - start[t]; d > elapsed {
			elapsed = d
		}
	}
	pool.DrainXPBuffers()
	st := pool.Stats()
	total := perThread * *threads
	fmt.Printf("workload      %s (%d threads, %d warm, %d ops)\n", *wl, *threads, *warm, total)
	fmt.Printf("throughput    %.2f Mop/s (simulated)\n", float64(total)*1e3/float64(elapsed))
	fmt.Printf("media write   %.1f MB   media read %.1f MB\n",
		float64(st.MediaWriteBytes)/1e6, float64(st.MediaReadBytes)/1e6)
	c := db.Metrics().Counters
	fmt.Printf("buffer hits   %d of %d lookups\n", c.BufferHits, c.Lookups)
	fmt.Printf("GC runs       %d (copied %d entries)\n", c.GCRuns, c.GCCopiedEntries)
}
