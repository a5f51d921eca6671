package bench

import (
	"fmt"
	"sync"

	"cclbtree/internal/obs"
)

// The package-level phase recorder. When a report is active (between
// StartReport and FinishReport) every Run records one PhaseRecord with
// the phase's counter deltas, latency quantiles and per-scope byte
// attribution. When inactive, recording is a no-op so library users of
// Run pay nothing.
var (
	recMu sync.Mutex
	rec   *obs.BenchReport
)

// StartReport begins collecting phase records under the given
// experiment name. A previous unfinished report is discarded.
func StartReport(name string) {
	recMu.Lock()
	rec = &obs.BenchReport{Name: name}
	recMu.Unlock()
}

// FinishReport ends collection and returns the report (nil if none was
// started). The live observation source installed by Run is
// uninstalled, since its pool is about to go away.
func FinishReport() *obs.BenchReport {
	recMu.Lock()
	r := rec
	rec = nil
	recMu.Unlock()
	obs.SetLive(nil)
	return r
}

// SnapshotReport returns a copy of the in-progress report (nil if none
// is active) without ending collection: the signal handler in cclbench
// uses it to persist a partial report on SIGINT/SIGTERM while the
// experiment keeps running to its own demise.
func SnapshotReport() *obs.BenchReport {
	recMu.Lock()
	defer recMu.Unlock()
	if rec == nil {
		return nil
	}
	cp := *rec
	cp.Phases = append([]obs.PhaseRecord(nil), rec.Phases...)
	return &cp
}

// recordPhase appends one measured phase to the active report.
// Per-scope media bytes come from the same monotone counters as
// MediaWriteBytes, so within a phase delta they sum exactly to it.
func recordPhase(idxName string, spec Spec, res *Result) {
	recMu.Lock()
	defer recMu.Unlock()
	if rec == nil {
		return
	}
	s := res.Stats
	s.UserWriteBytes = res.UserBytes
	rec.Phases = append(rec.Phases, obs.PhaseRecord{
		Phase:   fmt.Sprintf("%02d:%s/t%d", len(rec.Phases), idxName, spec.Threads),
		Index:   idxName,
		Threads: spec.Threads,
		Ops:     uint64(res.Ops),

		ElapsedVTNanos: res.ElapsedNS,
		MopsPerSec:     res.Mops(),
		P50Nanos:       uint64(res.Pct(50)),
		P99Nanos:       uint64(res.Pct(99)),

		UserBytes:       res.UserBytes,
		MediaWriteBytes: s.MediaWriteBytes,
		XPBufWriteBytes: s.XPBufWriteBytes,
		WAFactor:        s.XBIAmplification(),
		CLIFactor:       s.CLIAmplification(),
		XPBufHitRate:    s.WriteHitRate(),

		ScopeMediaBytes: s.ScopeMediaBytes(),

		Profile:        res.Profile,
		ShardBreakdown: res.ShardBreakdown,
	})
}
