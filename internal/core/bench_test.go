package core

import (
	"fmt"
	"sync"
	"testing"

	"cclbtree/internal/obs"
	"cclbtree/internal/pmem"
)

// benchmarkInsert measures the wall-clock cost of the hot insert path
// (not the modeled virtual time — bench/ measures that). The *ObsDisabled
// variant carries a disabled tracer: comparing the two bounds the
// overhead the observability layer adds when it is off.
func benchmarkInsert(b *testing.B, opts Options) {
	pool := pmem.NewPool(pmem.Config{
		Sockets:              1,
		DIMMsPerSocket:       2,
		DeviceBytes:          512 << 20,
		DisableCrashTracking: true,
	})
	opts.GC = GCOff
	tr, err := New(pool, opts)
	if err != nil {
		b.Fatal(err)
	}
	w := tr.NewWorker(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Upsert(uint64(i)+1, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	benchmarkInsert(b, Options{})
}

func BenchmarkInsertObsDisabled(b *testing.B) {
	benchmarkInsert(b, Options{Tracer: obs.NewTracer(1 << 10)})
}

func BenchmarkInsertMetricsOn(b *testing.B) {
	benchmarkInsert(b, Options{Metrics: true})
}

// scatteredKey spreads i over the key space by the golden ratio: every
// insert lands in a different leaf, so splits happen all over the tree
// (BenchmarkInsert's ascending keys only ever split the rightmost leaf).
func scatteredKey(i uint64) uint64 { return i*0x9e3779b97f4a7c15&MaxValue | 1 }

func BenchmarkInsertScattered(b *testing.B) {
	pool := pmem.NewPool(pmem.Config{
		Sockets:              1,
		DIMMsPerSocket:       2,
		DeviceBytes:          512 << 20,
		DisableCrashTracking: true,
	})
	tr, err := New(pool, Options{GC: GCOff})
	if err != nil {
		b.Fatal(err)
	}
	w := tr.NewWorker(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Upsert(scatteredKey(uint64(i)), uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInnerPut is the directory's share of a split: one routing
// entry registered at a scattered position.
func BenchmarkInnerPut(b *testing.B) {
	tr := newInnerTree(fixedCmp)
	th := innerThread()
	v := testSlab.newNode(pmem.MakeAddr(0, 4096), 1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.put(th, scatteredKey(uint64(i)), v)
	}
}

// BenchmarkInnerFindLE routes scattered keys through a 100 k-entry
// directory from 1 and 2 goroutines while one writer registers and
// removes routes as a splitting and merging worker does: between two
// structural changes it routes 16 ops of its own (ingest splits once
// per ~10 writes), so readers see a writer's real duty cycle rather
// than a saturated seqlock.
func BenchmarkInnerFindLE(b *testing.B) {
	for _, readers := range []int{1, 2} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			tr := newInnerTree(fixedCmp)
			th := innerThread()
			v := testSlab.newNode(pmem.MakeAddr(0, 4096), 1, 2)
			const routes = 100_000
			for i := uint64(0); i < routes; i++ {
				tr.put(th, scatteredKey(i), v)
			}
			stop := make(chan struct{})
			var writer, wg sync.WaitGroup
			writer.Add(1)
			go func() {
				defer writer.Done()
				for i := uint64(routes); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					tr.put(th, scatteredKey(i), v)
					tr.remove(th, scatteredKey(i-64))
					for j := uint64(0); j < 16; j++ {
						tr.findLE(th, scatteredKey(i<<4|j))
					}
				}
			}()
			rts := make([]*pmem.Thread, readers)
			for r := range rts {
				rts[r] = innerThread()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rt := rts[r]
					for i := r; i < b.N; i += readers {
						if tr.findLE(rt, scatteredKey(uint64(i)+1<<32)) == nil {
							b.Error("findLE routed nowhere")
							return
						}
					}
				}(r)
			}
			wg.Wait()
			b.StopTimer()
			close(stop)
			writer.Wait()
		})
	}
}
