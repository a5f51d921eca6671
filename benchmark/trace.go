package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// span is one timed interval recorded by the harness around a call
// into the layer under test: nothing inside the program is touched.
// Times are host nanoseconds since the process started.
type span struct {
	name         string
	parent, opID int32
	start, end   int64
}

var opSpanName = [...]string{opPut: "Put", opGet: "Get", opScan: "Scan"}

// trace holds the phase-level spans of one traced repeat (set-up, each
// preload Apply, ForceGC, the measured phase, OpenWithStats, verify).
// The per-op spans stay in their driver's log until the file is
// written. A nil *trace records nothing.
type trace struct{ phases []span }

// reserve opens a span whose interval is filled in later, so that
// spans recorded meanwhile can name it as their parent.
func (t *trace) reserve(name string) int32 {
	if t == nil {
		return -1
	}
	t.phases = append(t.phases, span{name: name, parent: -1, opID: -1})
	return int32(len(t.phases) - 1)
}

func (t *trace) fill(id int32, start, end int64) {
	if t != nil {
		t.phases[id].start, t.phases[id].end = start, end
	}
}

func (t *trace) phaseSpan(name string, start, end int64, parent int32) {
	if t != nil {
		t.phases = append(t.phases, span{name: name, parent: parent, opID: -1, start: start, end: end})
	}
}

// maxFileSpans caps the op spans written per file: a full-scale repeat
// records about a million, which is 100 MB of JSON nobody reads. The
// percentiles are computed from all of them; the file keeps the first.
const maxFileSpans = 100_000

type spanJSON struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	OpID   int32  `json:"op_id"`
	Driver int    `json:"driver"`
}

type traceFile struct {
	Workload  string       `json:"workload"`
	Seed      int64        `json:"seed"`
	OpSpans   int          `json:"op_spans_recorded"`
	Truncated bool         `json:"truncated"`
	Spans     []spanJSON   `json:"spans"`
	Segments  []obsSegment `json:"model_segments"`
}

// writeTrace writes the traced repeat's spans to dir/trace-<workload>.json.
func writeTrace(dir string, pl *plan, seed int64, r *repeatResult) (string, error) {
	f := traceFile{Workload: pl.name, Seed: seed, Segments: r.profile}
	for i, s := range r.trace.phases {
		f.Spans = append(f.Spans, spanJSON{ID: i, Name: s.name, Start: s.start, End: s.end, Parent: s.parent, OpID: -1, Driver: -1})
	}
	for d, lg := range r.logs {
		f.OpSpans += len(lg.spans)
		keep := maxFileSpans / len(r.logs)
		for _, s := range lg.spans[:min(keep, len(lg.spans))] {
			f.Spans = append(f.Spans, spanJSON{ID: len(f.Spans), Name: s.name, Start: s.start, End: s.end, Parent: s.parent, OpID: s.opID, Driver: d})
		}
		f.Truncated = f.Truncated || len(lg.spans) > keep
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+pl.name+".json")
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
