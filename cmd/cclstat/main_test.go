package main

import (
	"bytes"
	"testing"

	"cclbtree/internal/obs"
)

// replay writes rep the way cclbench does, reads it back the way
// --replay does, and renders it.
func replay(t *testing.T, rep *obs.BenchReport) string {
	t.Helper()
	path, err := rep.WriteFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	renderReport(&buf, back)
	return buf.String()
}

func TestReplayGolden(t *testing.T) {
	rep := &obs.BenchReport{
		Name: "tiny",
		Phases: []obs.PhaseRecord{
			{
				Phase: "00:CCL-BTree/t1", MopsPerSec: 1.5, WAFactor: 2.25, CLIFactor: 4,
				XPBufHitRate: 0.5, MediaWriteBytes: 3 << 10,
				ScopeMediaBytes: map[string]uint64{"leafbuf": 2 << 10, "wal": 1 << 10},
			},
			{
				Phase: "01:CCL-BTree/t8", MopsPerSec: 12.25, P50Nanos: 400, P99Nanos: 2100,
				WAFactor: 1.75, CLIFactor: 3.5, XPBufHitRate: 0.875, MediaWriteBytes: 1 << 10,
				ScopeMediaBytes: map[string]uint64{"leafbuf": 1 << 10},
				Profile: &obs.Profile{
					Locks: []obs.LockStat{{
						Class: "node", Acquisitions: 1000, Contended: 10,
						WaitP50NS: 50, WaitP99NS: 900, WaitMaxNS: 1200, HoldP99NS: 300,
					}},
					Segments: []obs.SegmentStat{
						{Op: "upsert", Segment: "wal", Count: 750, SumNS: 3000, P50NS: 3, P99NS: 9, P999NS: 12},
						{Op: "upsert", Segment: "flush", Count: 250, SumNS: 1000, P50NS: 4, P99NS: 8, P999NS: 10},
					},
					HotLeaves: []obs.HeatEntry{
						{Leaf: 0x1000, Score: 48, Reads: 40, Writes: 8},
						{Leaf: 0x2100, Score: 12, Reads: 12},
					},
					HeatEpoch: 3, HeatDropped: 1,
				},
			},
		},
	}
	const want = `# tiny
phase                             Mop/s    p50(ns)    p99(ns)      WA     CLI    hit%
00:CCL-BTree/t1                    1.50          -          -    2.25    4.00   50.0%
01:CCL-BTree/t8                   12.25        400       2100    1.75    3.50   87.5%

media writes by scope (4.00KiB total):
  leafbuf   ██████████████████████████████··········  75.0%  3.00KiB
  wal       ██████████······························  25.0%  1.00KiB

profile (phase 01:CCL-BTree/t8):

lock contention (wall ns, sampled):
  class        acquisitions  contended  wait p50  wait p99  wait max  hold p99
  node                 1000         10        50       900      1200       300

critical-path segments (virtual ns):
  op     segment       count      p50      p99     p999   share
  upsert wal             750        3        9       12   75.0%
  upsert flush           250        4        8       10   25.0%

hot leaves (epoch 3, 1 dropped):
            0x1000 ████████████████████████       48  (r 40 / w 8)
            0x2100 ██████··················       12  (r 12 / w 0)
`
	if got := replay(t, rep); got != want {
		t.Errorf("replay rendered:\n%s\nwant:\n%s", got, want)
	}
}

// A report rescued from a crashed or interrupted run says so on its
// first line (first line of the error only) and still renders the
// phases it has; one with none says that instead of an empty table.
func TestReplayPartialGolden(t *testing.T) {
	rep := &obs.BenchReport{
		Name:    "fig3",
		Partial: true,
		Err:     "panic: boom\ngoroutine 1 [running]:",
		Phases: []obs.PhaseRecord{{
			Phase: "00:FPTree/t1", MopsPerSec: 0.75, WAFactor: 11.25, CLIFactor: 9,
		}},
	}
	const want = `# fig3  [PARTIAL: panic: boom]
phase                             Mop/s    p50(ns)    p99(ns)      WA     CLI    hit%
00:FPTree/t1                       0.75          -          -   11.25    9.00    0.0%

media writes by scope (0B total):
  (no media writes)
`
	if got := replay(t, rep); got != want {
		t.Errorf("partial replay rendered:\n%s\nwant:\n%s", got, want)
	}

	rep.Phases = nil
	rep.Err = "interrupted: interrupt"
	const wantEmpty = "# fig3  [PARTIAL: interrupted: interrupt]\n(no phases recorded)\n"
	if got := replay(t, rep); got != wantEmpty {
		t.Errorf("empty partial replay rendered %q, want %q", got, wantEmpty)
	}
}
