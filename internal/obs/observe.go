package obs

import (
	"encoding/json"
	"net/http"
	"sync/atomic"

	"cclbtree/internal/pmem"
)

// Observation is the flattened, JSON-friendly view of a counter
// snapshot: what cclstat renders and what the -http endpoint serves.
// Byte counts are deltas since pool creation or the last ResetStats.
type Observation struct {
	Label string `json:"label,omitempty"`
	VT    int64  `json:"vt,omitempty"` // virtual time of the snapshot, if known

	MediaWriteBytes uint64 `json:"media_write_bytes"`
	MediaReadBytes  uint64 `json:"media_read_bytes"`
	XPBufWriteBytes uint64 `json:"xpbuf_write_bytes"`
	UserBytes       uint64 `json:"user_bytes"`
	CacheEvictions  uint64 `json:"cache_evictions"`
	RemoteAccesses  uint64 `json:"remote_accesses"`

	WAFactor          float64 `json:"wa_factor"`  // media / user (XBI)
	CLIFactor         float64 `json:"cli_factor"` // xpbuf / user
	XPBufWriteHitRate float64 `json:"xpbuf_write_hit_rate"`

	ScopeMediaBytes map[string]uint64 `json:"scope_media_bytes"`
	ScopeXPBufBytes map[string]uint64 `json:"scope_xpbuf_bytes"`

	// Profile carries the contention/span/heat tier when the observed
	// index exposes one (nil otherwise — byte counters always work,
	// profiling is opt-in via Metrics).
	Profile *Profile `json:"profile,omitempty"`
}

// FromStats flattens a pmem.Stats snapshot.
func FromStats(s pmem.Stats) Observation {
	o := Observation{
		MediaWriteBytes:   s.MediaWriteBytes,
		MediaReadBytes:    s.MediaReadBytes,
		XPBufWriteBytes:   s.XPBufWriteBytes,
		UserBytes:         s.UserWriteBytes,
		CacheEvictions:    s.CacheEvictions,
		RemoteAccesses:    s.RemoteAccesses,
		WAFactor:          s.XBIAmplification(),
		CLIFactor:         s.CLIAmplification(),
		XPBufWriteHitRate: s.WriteHitRate(),
		ScopeMediaBytes:   s.ScopeMediaBytes(),
		ScopeXPBufBytes:   map[string]uint64{},
	}
	for i, v := range s.XPBufWriteByScope {
		if v > 0 {
			o.ScopeXPBufBytes[pmem.Scope(i).String()] = v
		}
	}
	return o
}

// Observe snapshots a pool as an Observation (the obs-side counterpart
// of pmem.Pool.Observe, which returns the raw Stats).
func Observe(p *pmem.Pool) Observation { return FromStats(p.Stats()) }

// live is the currently installed Observation source for the HTTP
// endpoint. Process-global: a process benches one pool at a time.
var live atomic.Pointer[func() Observation]

// SetLive installs f as the source behind Handler (nil uninstalls).
// The bench harness points this at the pool of the currently running
// experiment.
func SetLive(f func() Observation) {
	if f == nil {
		live.Store(nil)
		return
	}
	live.Store(&f)
}

// Handler returns an expvar-style HTTP handler serving the live
// Observation as JSON. Responds 503 while no source is installed
// (between experiments). cclstat -attach polls this endpoint.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f := live.Load()
		if f == nil {
			http.Error(w, "no live observation source", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode((*f)())
	})
}
