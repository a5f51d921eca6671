// Package obs is the observability layer: latency histograms, an event
// tracer, and machine-readable bench emission, spanning the stack from
// the pmem device model through the WAL and tree up to the bench
// harness.
//
// # Histograms
//
// A Metrics registry holds named latency histograms (the tree's
// behavioral counts are core.Counters, plain atomics on the tree).
// Recording goes through per-thread Handles (NewHandle): each handle
// owns private atomic cells, so the hot path is a few uncontended
// atomic adds — no locks, no allocation. Snapshot aggregates across all
// handles on demand. Like pmem.Thread, a Handle is single-owner: one
// goroutine at a time. Histograms use log2 buckets refined by 3 mantissa bits
// (~half-percent relative error on quantiles), enough to report the
// p50/p99 the bench records need without per-sample storage.
//
// # Scope attribution
//
// Where the media bytes *come from* is the pmem layer's job:
// pmem.Thread carries an attribution Scope (PushScope/PopScope), and
// every XPLine written back to media is charged to the scope of the
// thread that dirtied it. The per-scope buckets partition
// MediaWriteBytes exactly (at quiescence), which is what lets cclstat
// show "how much of the amplification is WAL vs. leaf flush vs. GC".
// This package consumes that attribution (Observe, BenchReport); it
// does not produce it.
//
// # Tracer
//
// Tracer is a fixed-capacity ring of events (operation begin/end,
// batch flush, split, GC round, XPBuffer eviction, crash) stamped with
// a monotonic sequence number and the emitting thread's virtual time.
// Emit on a disabled or nil tracer is a single atomic load and zero
// allocations (guarded by a testing.AllocsPerRun test), so tracing
// hooks can stay compiled into hot paths. Dumps are JSON (Events,
// WriteJSON) or the Chrome trace_event format (WriteChromeTrace, load
// in chrome://tracing or Perfetto). Device-level events flow in
// through pmem.Pool.SetDeviceTracer via Tracer.DeviceHook — the device
// model cannot import this package, so the hook is the seam.
//
// # Overhead expectations
//
// Everything here is pay-for-what-you-enable. Metrics disabled: zero
// cost (no handles exist). Metrics enabled: a few atomic adds per
// histogram sample. Tracer disabled: one atomic bool
// load per Emit site. Tracer enabled: ~6 atomic stores per event, no
// allocation. The acceptance bar for this layer is <3% insert-path
// regression with everything disabled and 0 allocations per op.
//
// # cclstat and the paper's methodology
//
// The paper measures XPBuffer-induced write amplification with
// ipmctl's media-write counters: run workload, diff the DIMM counters,
// divide by user bytes (§2, §5). cclstat is the same methodology
// against the modeled device: Observation carries the counter deltas
// (media bytes, XPBuffer bytes, hit rate, WA factor) plus the
// per-scope split real hardware cannot give. `cclstat --replay` renders
// a recorded BENCH_*.json; `cclstat -attach` polls the JSON endpoint
// cmd/cclbench serves with -http and renders it live.
package obs
