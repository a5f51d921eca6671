package bench

import "testing"

func smokeScale() Scale {
	// -short still smokes every experiment, just at a scale that keeps
	// the whole package within the repo's <30s short-suite budget.
	if testing.Short() {
		return Scale{Warm: 400, Ops: 400, Threads: []int{2}, MainThreads: 2, ScanLen: 20, Seed: 1}
	}
	// 3000: Fig 15d's largest dataset (10x Warm, plus Ops) stays below
	// deviceBytes' 40 000-key line, so no smoke cell zeroes 256 MB
	// devices.
	return Scale{Warm: 3000, Ops: 3000, Threads: []int{2, 8}, MainThreads: 8, ScanLen: 20, Seed: 1}
}

func TestSmokeAllExperiments(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			tabs, err := e.Run(smokeScale())
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if len(tabs) == 0 {
				t.Fatalf("%s produced no tables", e.Name)
			}
			for _, tb := range tabs {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s: empty table %q", e.Name, tb.Title)
				}
			}
		})
	}
}
