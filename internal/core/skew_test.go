package core

import "testing"

// TestLogFootprintIgnoresWriterSkew runs two writers from one goroutine,
// in lockstep and with one writer ahead of the other. How far one writer
// runs ahead is the host scheduler's choice; whatever it is, no writer's
// log takes a second chunk of a generation: the GC round starts instead
// (DESIGN.md, "Locality-aware GC").
func TestLogFootprintIgnoresWriterSkew(t *testing.T) {
	const keys, chunk = 600, 64 << 10
	for _, skew := range [][2]int{{1, 1}, {4, 3}, {3, 2}} {
		tr, a := newTestTree(t, Options{ChunkBytes: chunk}, nil)
		for k := uint64(1); k <= keys; k++ {
			if err := a.Upsert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		tr.ForceGC()
		b := tr.NewWorker(0)
		for next := uint64(1); next <= 60000; {
			for i := range skew[0] + skew[1] {
				w := a
				if i >= skew[0] {
					w = b
				}
				if err := w.Upsert(next*7919%keys+1, next); err != nil {
					t.Fatal(err)
				}
				next++
				tr.WaitGC()
				for e, l := range w.logs {
					if got := l.ChunkBytes(); got > chunk {
						t.Fatalf("writers at %d:%d: after op %d a log holds %d B of generation %d, one chunk is %d B",
							skew[0], skew[1], next-1, got, e, chunk)
					}
				}
			}
		}
		if runs := tr.Counters().GCRuns; runs < 6 {
			t.Fatalf("writers at %d:%d: only %d GC rounds", skew[0], skew[1], runs)
		}
	}
}
