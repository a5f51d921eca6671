package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// PhaseRecord is one measured phase of a bench experiment: one
// (index, thread-count, workload) cell, with its counter deltas and
// latency quantiles.
type PhaseRecord struct {
	Phase   string `json:"phase"` // e.g. "03:ccl-btree/t8"
	Index   string `json:"index"`
	Threads int    `json:"threads"`
	Ops     uint64 `json:"ops"`

	ElapsedVTNanos int64   `json:"elapsed_vt_ns"` // modeled wall time
	MopsPerSec     float64 `json:"mops"`
	P50Nanos       uint64  `json:"p50_ns,omitempty"` // 0 when latency off
	P99Nanos       uint64  `json:"p99_ns,omitempty"`

	UserBytes       uint64  `json:"user_bytes"`
	MediaWriteBytes uint64  `json:"media_write_bytes"`
	XPBufWriteBytes uint64  `json:"xpbuf_write_bytes"`
	WAFactor        float64 `json:"wa_factor"`
	CLIFactor       float64 `json:"cli_factor"`
	XPBufHitRate    float64 `json:"xpbuf_write_hit_rate"`

	ScopeMediaBytes map[string]uint64 `json:"scope_media_bytes"`

	// Profile is the phase-end contention/span/heat tier, present when
	// the index under test exposes one (cumulative since the index was
	// created, not a per-phase delta — phases share one tree).
	Profile *Profile `json:"profile,omitempty"`

	// ShardBreakdown attributes a sharded phase to its shards: one
	// entry per commit lane when the phase ran through the serving
	// tier, absent for single-tree phases.
	ShardBreakdown []ShardPhase `json:"shards,omitempty"`
}

// ShardPhase is one shard's slice of a sharded phase: the commit-lane
// attribution the serving tier reports per shard.
type ShardPhase struct {
	Shard      int     `json:"shard"`
	HomeSocket int     `json:"home_socket"`
	Ops        uint64  `json:"ops"`
	Batches    uint64  `json:"batches"`
	AvgBatch   float64 `json:"avg_batch"`
	// VirtualNS is the shard's commit lane busy time in the device
	// model during the phase.
	VirtualNS int64 `json:"virtual_ns"`
	// Upserts is the shard tree's write count for the phase.
	Upserts uint64 `json:"upserts"`
}

// BenchReport is the machine-readable record one experiment emits:
// every measured phase in run order. Partial/Err mark a report rescued
// from a panicking experiment — the phases recorded before the panic
// are intact.
type BenchReport struct {
	Name    string        `json:"name"`
	Partial bool          `json:"partial,omitempty"`
	Err     string        `json:"error,omitempty"`
	Phases  []PhaseRecord `json:"phases"`
}

// FileName is the canonical emission name for an experiment record.
func FileName(name string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, name)
	return "BENCH_" + clean + ".json"
}

// WriteFile writes the report as dir/BENCH_<name>.json (dir "" means
// the current directory) and returns the path written.
func (r *BenchReport) WriteFile(dir string) (string, error) {
	path := filepath.Join(dir, FileName(r.Name))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("obs: marshal report %q: %w", r.Name, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("obs: write report: %w", err)
	}
	return path, nil
}

// ReadBenchReport loads a report written by WriteFile (cclstat --replay).
func ReadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read report: %w", err)
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: parse report %s: %w", path, err)
	}
	return &r, nil
}
