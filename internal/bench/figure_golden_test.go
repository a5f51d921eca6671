package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// goldenScale is one thread at a small size: every experiment renders
// in a few seconds, and on one thread the figures below are a function
// of the code alone.
var goldenScale = Scale{Warm: 400, Ops: 400, Threads: []int{1}, MainThreads: 1, ScanLen: 20, Seed: 1}

// goldenSkip lists the experiments whose tables vary from run to run
// even on one thread: fig14, table2, fig17 and ablation-gc race a
// background GC or recovery goroutine against virtual time, and ycsbb
// prints wall-clock lock waits.
var goldenSkip = map[string]bool{
	"fig14": true, "table2": true, "fig17": true, "ablation-gc": true, "ycsbb": true,
}

// figureGolden holds, per experiment, the FNV-1a hash of each printed
// table at goldenScale, in output order.
var figureGolden = map[string][]string{
	"fig2":           {"265a918de6ebee20", "82230b2cdc892d67"},
	"fig3":           {"15d05f94236992dc"},
	"fig4":           {"2172d34dc06460a2"},
	"fig5":           {"631360aa24bda0d2"},
	"fig10":          {"2e24c98fe0b40bc9", "34e369b6da8cde37", "2100ee17251f5398", "9f8e21f9011a9ee3", "de5a08f2c32657c1"},
	"fig11":          {"c70e9b0889024aad", "ac9750d6fe4ecb38", "aced90484fa88ddc", "af917f8521355def", "f36568da5427c584"},
	"fig12":          {"b17e9fec80432dbd", "89bcf9e8e00a7b4c"},
	"fig13":          {"46f80c741deddc59", "fa93cd4237360461"},
	"table1":         {"2b1fca1802721143"},
	"fig15a":         {"90d032713d7576da"},
	"fig15b":         {"5aeb12c1a0c2f0b4"},
	"fig15c":         {"45c9e88a0d9e1a60"},
	"fig15d":         {"f69c1996712e569e"},
	"fig16":          {"77f92cdf2744cae5"},
	"fig18":          {"ac48d5bfe4ca0752", "e06d810c2c672e7a"},
	"fig19":          {"bd17c644ed42b450"},
	"table3":         {"a1dec98777272a64"},
	"ycsbc":          {"13e6ad4a5c2b3af9"},
	"batch":          {"285039bd82f21afb"},
	"shards":         {"be3a7b721edbfeed"},
	"ablation-cache": {"8c064843e2da2a44"},
	"extension-hash": {"4cf313757b382fb4"},
}

// TestFigureGolden renders every reproducible experiment at goldenScale
// and compares each table's hash with the committed one, so a change
// that moves any printed figure shows here. On a mismatch it prints the
// whole table it got. Experiments share no state, so they render in
// parallel.
func TestFigureGolden(t *testing.T) {
	for _, e := range All() {
		if goldenSkip[e.Name] {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			tabs, err := e.Run(goldenScale)
			if err != nil {
				t.Fatal(err)
			}
			want := figureGolden[e.Name]
			var got []string
			for i, tb := range tabs {
				var buf bytes.Buffer
				tb.Fprint(&buf)
				h := fnv.New64a()
				h.Write(buf.Bytes())
				got = append(got, fmt.Sprintf("%016x", h.Sum64()))
				if i >= len(want) || want[i] != got[i] {
					t.Errorf("table %d moved:\n%s", i, buf.String())
				}
			}
			if len(got) != len(want) {
				t.Errorf("%d tables, want %d", len(got), len(want))
			}
			if t.Failed() {
				t.Logf("golden entry: %q: {\"%s\"},", e.Name, strings.Join(got, `", "`))
			}
		})
	}
}
