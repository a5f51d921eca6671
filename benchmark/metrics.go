package main

import (
	"slices"

	"cclbtree/internal/obs"
	"cclbtree/internal/pmem"
)

// Every number the benchmark prints is declared here with its unit and
// its clock. BENCHMARK.json repeats the names, units, directions and
// bounds; the smoke test fails when the two disagree.

type clock string

const (
	// host is wall time (or memory, or allocations) of the Go code a
	// user runs. It moves with the machine and with any code change.
	host clock = "host"
	// model is virtual time or traffic of the internal/pmem cost model:
	// what the modeled Optane platform would deliver. A simulator
	// speed-up must leave it identical; a design change must move it.
	model clock = "model"
	// count is an event count from a layer's own counters.
	count clock = "count"
)

type metricDef struct {
	Name   string
	Unit   string
	Clock  clock
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share by which it may worsen
	// best: report the best repeat (host-clock noise on a shared runner
	// is one-sided: neighbours only ever slow a repeat down). Otherwise
	// the median repeat.
	best bool
}

var endToEnd = []metricDef{
	{Name: "model_mops", Unit: "Mop/s", Clock: model, Better: "higher", Bound: 0.08},
	{Name: "model_tail_us", Unit: "us", Clock: model, Better: "lower", Bound: 0.05},
	{Name: "xbi_amp", Unit: "ratio", Clock: model, Better: "lower", Bound: 0.03},
	{Name: "pm_bytes_per_user_byte", Unit: "ratio", Clock: model, Better: "lower", Bound: 0.02},
	{Name: "recovery_model_ms", Unit: "ms", Clock: model, Better: "lower", Bound: 0.05},
	{Name: "allocs_per_op", Unit: "1/op", Clock: host, Better: "lower", Bound: 0.05},
	{Name: "alloc_bytes_per_op", Unit: "B/op", Clock: host, Better: "lower", Bound: 0.05},
	{Name: "host_mem_mb", Unit: "MB", Clock: host, Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Clock: host, Better: "lower", Bound: 0.25},
}

// wallClock are the host-clock speeds. Every run measures, prints and
// saves them, and -compare judges them, but they are not end-to-end
// metrics of BENCHMARK.json: on the shared reference runner their
// run-to-run spread reaches 20–30% of the median in a noisy spell
// (README.md, "Noise"), beyond any bound the contract allows, so a gate
// on them would reject changes for the neighbours' behaviour. The
// driver sees them as the per-layer host.* metrics of the traced run.
var wallClock = []metricDef{
	{Name: "wall_kops", Unit: "kop/s", Clock: host, Better: "higher", Bound: 0.25, best: true},
	{Name: "wall_p99_us", Unit: "us", Clock: host, Better: "lower", Bound: 0.25, best: true},
	{Name: "recovery_s", Unit: "s", Clock: host, Better: "lower", Bound: 0.25, best: true},
}

// measured is everything a --trace 0 run computes per repeat.
var measured = slices.Concat(endToEnd, wallClock)

func lower(c clock, unit string, names ...string) []metricDef {
	return defs(c, unit, "lower", names)
}

func higher(c clock, unit string, names ...string) []metricDef {
	return defs(c, unit, "higher", names)
}

func defs(c clock, unit, better string, names []string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Clock: c, Better: better}
	}
	return out
}

var segmentNames = []string{"lockwait", "traverse", "validate", "wal", "buffer", "trigger", "flush", "fence", "other"}

var perLayer = slices.Concat(
	// pmem: the device model.
	lower(count, "ratio", "pmem.cli_amp"),
	higher(count, "ratio", "pmem.xpbuf_write_hit_rate"),
	lower(count, "B/op", "pmem.media_write_bytes_per_op", "pmem.media_read_bytes_per_op"),
	lower(count, "1/op", "pmem.flushes_per_op"),
	lower(count, "1/kop", "pmem.cache_evictions_per_kop", "pmem.remote_accesses_per_kop"),
	lower(host, "ns", "pmem.persist16_rand_wall_ns", "pmem.persist16_seq_wall_ns", "pmem.load_rand_wall_ns"),
	lower(model, "ns", "pmem.persist16_rand_model_ns", "pmem.persist16_seq_model_ns", "pmem.load_rand_model_ns"),
	higher(host, "ratio", "pmem.persist16_scale_2g"),
	// pmalloc.
	lower(host, "ns", "pmalloc.alloc_free_wall_ns"),
	lower(count, "B/op", "pmalloc.meta_media_bytes_per_op"),
	// wal.
	lower(host, "ns", "wal.append_wall_ns", "wal.append_batch64_wall_ns"),
	lower(model, "ns", "wal.append_model_ns", "wal.append_batch64_model_ns"),
	lower(host, "1/op", "wal.append_allocs"),
	lower(count, "B/op", "wal.media_bytes_per_op"),
	lower(count, "ratio", "wal.logged_per_write"),
	higher(count, "ratio", "wal.skipped_per_write"),
	lower(count, "MB", "wal.peak_log_mb"),
	// core: the tree.
	lower(host, "ns", "core.upsert_wall_ns", "core.lookup_wall_ns", "core.scan100_wall_ns", "core.apply64_wall_ns"),
	lower(model, "ns", "core.upsert_model_ns", "core.lookup_model_ns", "core.scan100_model_ns", "core.apply64_model_ns"),
	lower(host, "1/op", "core.upsert_allocs", "core.lookup_allocs", "core.apply64_allocs"),
	lower(count, "ratio", "core.trigger_writes_per_write", "core.gc_copied_per_write"),
	higher(count, "ratio", "core.buffer_hit_rate"),
	lower(count, "1/kop", "core.splits_per_kop", "core.merges_per_kop", "core.retries_per_kop", "core.read_retries_per_kop"),
	lower(count, "count", "core.gc_runs", "core.recovery_entries_replayed", "core.recovery_leaves"),
	lower(count, "B/op", "core.leafbuf_media_bytes_per_op", "core.split_media_bytes_per_op", "core.gc_media_bytes_per_op"),
	lower(count, "B/key", "core.dram_bytes_per_key"),
	lower(model, "ratio", prefixed("core.seg_", "_share", segmentNames)...),
	// cclbtree: the root package, DB and Session.
	lower(host, "ns", "cclbtree.put_wall_ns", "cclbtree.get_wall_ns", "cclbtree.scan100_wall_ns", "cclbtree.apply64_wall_ns",
		"cclbtree.put_shards2_wall_ns", "cclbtree.put_self_ns", "cclbtree.get_self_ns",
		"cclbtree.put_p50_ns", "cclbtree.put_p999_ns", "cclbtree.get_p50_ns", "cclbtree.scan_p50_ns"),
	lower(model, "ns", "cclbtree.put_model_ns"),
	lower(host, "1/op", "cclbtree.put_allocs", "cclbtree.get_allocs", "cclbtree.apply64_allocs"),
	lower(host, "ms", "cclbtree.open_wall_ms"),
	lower(model, "us", "cclbtree.model_p50_us", "cclbtree.model_p99_us"),
	// server.
	lower(host, "ns", "server.put_wall_ns", "server.get_wall_ns", "server.put_self_ns"),
	lower(host, "1/op", "server.put_allocs"),
	higher(count, "ratio", "server.avg_batch"),
	lower(count, "1/kop", "server.batches_per_kop"),
	lower(count, "count", "server.rejected"),
	lower(count, "ratio", "server.lane_imbalance"),
	lower(model, "ms", "server.lane_model_busy_max_ms"),
	lower(host, "us", "server.put_p50_us", "server.get_p50_us"),
	// The benchmark's own generator, the tree's telemetry, the Go
	// runtime, and the harness itself.
	lower(host, "ns", "workload.keygen_wall_ns"),
	lower(host, "%", "obs.metrics_overhead_pct"),
	lower(host, "ms", "host.gc_pause_ms"),
	lower(host, "count", "host.num_gc"),
	higher(host, "kop/s", "host.wall_kops"),
	lower(host, "us", "host.wall_p99_us"),
	lower(host, "s", "host.recovery_s"),
	lower(host, "s/Mop", "host.cpu_s_per_mop"),
	lower(host, "%", "bench.trace_overhead_pct", "bench.noise_pct"),
	higher(host, "kop/s", "bench.wall_kops_median"),
	lower(host, "us", "bench.wall_p50_us", "bench.wall_p999_us"),
	lower(host, "s", "bench.run_s"),
	higher(host, "count", "bench.latency_samples"),
)

func prefixed(prefix, suffix string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + n + suffix
	}
	return out
}

func declared(defs []metricDef, name string) bool {
	return slices.ContainsFunc(defs, func(d metricDef) bool { return d.Name == name })
}

// values is a set of measured metrics by name.
type values map[string]float64

// hostLatencies gathers the sampled host latencies of every driver,
// ascending.
func (r *repeatResult) hostLatencies() []int64 {
	var all []int64
	for _, lg := range r.logs {
		all = append(all, lg.hostNS...)
	}
	slices.Sort(all)
	return all
}

func (r *repeatResult) modelLatencies() []uint32 {
	var all []uint32
	for _, lg := range r.logs {
		all = append(all, lg.modelNS...)
	}
	slices.Sort(all)
	return all
}

// modelTailUS is the mean model-clock latency of the ops ranked between
// p99 and p99.9: the tail Fig 12 reports as p99. The p99 itself is one
// of a few discrete sums of modeled latencies and reads the same under
// every seed (2.368 us on ingest), so it can neither be gated nor moved
// by anything short of a step; the mean of its band is continuous. The
// band stops at p99.9 because beyond it mixed holds a few stalls of up
// to 35 ms, whose number varies from run to run by a tenth (they count
// in model_mops). Behind the server a lane's clock is not visible per op
// from outside, so served reports the nearest thing that is: the mean
// model time of one group commit on the slowest lane, which every Put
// of the group waits for.
func (r *repeatResult) modelTailUS() float64 {
	for _, l := range r.srv.Lanes {
		if l.VirtualNS == r.srv.MaxLaneVirtualNS {
			return ratio(float64(l.VirtualNS), float64(l.Batches)) / 1e3
		}
	}
	lat := r.modelLatencies()
	band := lat[len(lat)*99/100 : max(len(lat)*999/1000, len(lat)*99/100+1)]
	sum := 0.0
	for _, ns := range band {
		sum += float64(ns)
	}
	return sum / float64(len(band)) / 1e3
}

func (r *repeatResult) wallKops() float64 { return float64(r.ops) / r.measureS / 1e3 }

// measured computes one repeat's end-to-end and wall-clock metrics.
func (r *repeatResult) measured() values {
	measured := r.after.pm.Sub(r.before.pm)
	// xbi_amp is media bytes written per user byte written over the
	// measured phase. lookup writes nothing there, so it reports the
	// amplification of its preload (Apply in batches of 256, then
	// ForceGC): the batched-ingest path no other workload takes.
	amp := ratio(float64(measured.MediaWriteBytes), float64(16*r.puts))
	if r.puts == 0 {
		amp = ratio(float64(r.before.pm.MediaWriteBytes), float64(16*r.liveKeys))
	}
	return values{
		"model_mops":             ratio(float64(r.ops), float64(r.modelNS)) * 1e3,
		"model_tail_us":          r.modelTailUS(),
		"xbi_amp":                amp,
		"pm_bytes_per_user_byte": ratio(float64(r.pmBytes), float64(16*r.liveKeys)),
		"recovery_model_ms":      float64(r.recovery.VirtualNS) / 1e6,
		"allocs_per_op":          ratio(float64(r.after.mem.Mallocs-r.before.mem.Mallocs), float64(r.ops)),
		"alloc_bytes_per_op":     ratio(float64(r.after.mem.TotalAlloc-r.before.mem.TotalAlloc), float64(r.ops)),
		"host_mem_mb":            float64(r.heapInuse) / (1 << 20),
		"setup_s":                r.setupS,
		"wall_kops":              r.wallKops(),
		"wall_p99_us":            float64(quantile(r.hostLatencies(), 0.99)) / 1e3,
		"recovery_s":             r.recoverS,
	}
}

// layerCounts computes the per-layer metrics that come from counter
// deltas over the measured phase of an untraced repeat.
func (r *repeatResult) layerCounts() values {
	pm := r.after.pm.Sub(r.before.pm)
	a, b := r.after.ctr, r.before.ctr
	ops, kops, writes := float64(r.ops), float64(r.ops)/1e3, float64(r.puts)
	scope := func(s pmem.Scope) float64 { return ratio(float64(pm.MediaWriteByScope[s]), ops) }
	v := values{
		"pmem.cli_amp":                  ratio(float64(pm.XPBufWriteBytes), 16*writes),
		"pmem.xpbuf_write_hit_rate":     pm.WriteHitRate(),
		"pmem.media_write_bytes_per_op": ratio(float64(pm.MediaWriteBytes), ops),
		"pmem.media_read_bytes_per_op":  ratio(float64(pm.MediaReadBytes), ops),
		"pmem.flushes_per_op":           ratio(float64(r.after.flushes-r.before.flushes), ops),
		"pmem.cache_evictions_per_kop":  ratio(float64(pm.CacheEvictions), kops),
		"pmem.remote_accesses_per_kop":  ratio(float64(pm.RemoteAccesses), kops),

		"pmalloc.meta_media_bytes_per_op": scope(pmem.ScopeMeta),

		"wal.media_bytes_per_op": scope(pmem.ScopeWAL),
		"wal.logged_per_write":   ratio(float64(a.LoggedWrites-b.LoggedWrites), writes),
		"wal.skipped_per_write":  ratio(float64(a.SkippedLogs-b.SkippedLogs), writes),
		"wal.peak_log_mb":        float64(r.peakLogBytes) / (1 << 20),

		"core.trigger_writes_per_write":   ratio(float64(a.TriggerWrites-b.TriggerWrites), writes),
		"core.gc_copied_per_write":        ratio(float64(a.GCCopiedEntries-b.GCCopiedEntries), writes),
		"core.buffer_hit_rate":            ratio(float64(a.BufferHits-b.BufferHits), float64(a.Lookups-b.Lookups)),
		"core.splits_per_kop":             ratio(float64(a.Splits-b.Splits), kops),
		"core.merges_per_kop":             ratio(float64(a.Merges-b.Merges), kops),
		"core.retries_per_kop":            ratio(float64(a.Retries-b.Retries), kops),
		"core.read_retries_per_kop":       ratio(float64(a.ReadRetries-b.ReadRetries), kops),
		"core.gc_runs":                    float64(a.GCRuns - b.GCRuns),
		"core.recovery_entries_replayed":  float64(r.recovery.EntriesReplayed),
		"core.recovery_leaves":            float64(r.recovery.Leaves),
		"core.leafbuf_media_bytes_per_op": scope(pmem.ScopeLeafBuf),
		"core.split_media_bytes_per_op":   scope(pmem.ScopeSplit),
		"core.gc_media_bytes_per_op":      scope(pmem.ScopeGC),
		"core.dram_bytes_per_key":         ratio(float64(r.dramBytes), float64(r.liveKeys)),

		"server.rejected":               float64(r.srv.Rejected),
		"server.lane_model_busy_max_ms": float64(r.srv.MaxLaneVirtualNS) / 1e6,

		"host.gc_pause_ms":      float64(r.after.mem.PauseTotalNs-r.before.mem.PauseTotalNs) / 1e6,
		"host.num_gc":           float64(r.after.mem.NumGC - r.before.mem.NumGC),
		"host.wall_kops":        r.wallKops(),
		"host.recovery_s":       r.recoverS,
		"host.cpu_s_per_mop":    ratio((r.after.cpu - r.before.cpu).Seconds(), ops/1e6),
		"bench.run_s":           r.setupS + r.measureS + r.recoverS + r.verifyS,
		"cclbtree.open_wall_ms": r.recoverS * 1e3,
	}
	lat := r.hostLatencies()
	v["bench.latency_samples"] = float64(len(lat))
	v["host.wall_p99_us"] = float64(quantile(lat, 0.99)) / 1e3
	v["bench.wall_p50_us"] = float64(quantile(lat, 0.50)) / 1e3
	v["bench.wall_p999_us"] = float64(quantile(lat, 0.999)) / 1e3
	if ml := r.modelLatencies(); len(ml) > 0 {
		v["cclbtree.model_p50_us"] = float64(quantile(ml, 0.50)) / 1e3
		v["cclbtree.model_p99_us"] = float64(quantile(ml, 0.99)) / 1e3
	}
	if lanes := r.srv.Lanes; len(lanes) > 0 {
		var laneOps, batches, maxOps uint64
		for _, l := range lanes {
			laneOps += l.Ops
			batches += l.Batches
			maxOps = max(maxOps, l.Ops)
		}
		v["server.avg_batch"] = ratio(float64(laneOps), float64(batches))
		v["server.batches_per_kop"] = ratio(float64(batches), kops)
		v["server.lane_imbalance"] = ratio(float64(maxOps), float64(laneOps)/float64(len(lanes)))
	}
	return v
}

// obsSegment is the model time one critical-path segment absorbed,
// summed over the ops of one class on one shard.
type obsSegment struct {
	Op      string `json:"op"`
	Segment string `json:"segment"`
	SumNS   uint64 `json:"sum_ns"`
}

func segmentSums(p obs.Profile) []obsSegment {
	out := make([]obsSegment, len(p.Segments))
	for i, s := range p.Segments {
		out[i] = obsSegment{Op: s.Op, Segment: s.Segment, SumNS: s.SumNS}
	}
	return out
}

// segmentShares splits the model time of the workload's writes (its
// reads, on a workload that writes nothing) into the critical-path
// segments internal/obs attributes; the shares sum to 1.
func segmentShares(profile []obsSegment, writes bool) values {
	sums := map[string]float64{}
	total := 0.0
	for _, s := range profile {
		if (s.Op == "get") == writes {
			continue
		}
		sums[s.Segment] += float64(s.SumNS)
		total += float64(s.SumNS)
	}
	v := values{}
	for _, seg := range segmentNames {
		v["core.seg_"+seg+"_share"] = ratio(sums[seg], total)
	}
	return v
}

// spanPercentiles computes the per-op-type host latencies of a traced
// repeat from its harness spans.
func (r *repeatResult) spanPercentiles() values {
	byName := map[string][]int64{}
	for _, lg := range r.logs {
		for _, s := range lg.spans {
			byName[s.name] = append(byName[s.name], s.end-s.start)
		}
	}
	for _, d := range byName {
		slices.Sort(d)
	}
	put, get := byName["Put"], byName["Get"]
	v := values{}
	if len(r.srv.Lanes) > 0 {
		v["server.put_p50_us"] = float64(quantile(put, 0.50)) / 1e3
		v["server.get_p50_us"] = float64(quantile(get, 0.50)) / 1e3
		return v
	}
	v["cclbtree.put_p50_ns"] = float64(quantile(put, 0.50))
	v["cclbtree.put_p999_ns"] = float64(quantile(put, 0.999))
	v["cclbtree.get_p50_ns"] = float64(quantile(get, 0.50))
	v["cclbtree.scan_p50_ns"] = float64(quantile(byName["Scan"], 0.50))
	return v
}

// ladderValues names the ladder's rungs as metrics; a layer's self cost
// is its rung minus the rung below.
func (l *ladder) values() values {
	v := values{}
	for _, r := range l.rungs {
		for suffix, x := range map[string]float64{"_wall_ns": r.wallNS, "_model_ns": r.modelNS, "_allocs": r.allocs} {
			if declared(perLayer, r.name+suffix) { // the table below prints every rung in full
				v[r.name+suffix] = x
			}
		}
	}
	v["pmem.persist16_scale_2g"] = l.scale2g
	v["cclbtree.put_self_ns"] = v["cclbtree.put_wall_ns"] - v["core.upsert_wall_ns"]
	v["cclbtree.get_self_ns"] = v["cclbtree.get_wall_ns"] - v["core.lookup_wall_ns"]
	v["server.put_self_ns"] = v["server.put_wall_ns"] - v["cclbtree.put_wall_ns"]
	return v
}
