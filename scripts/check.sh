#!/usr/bin/env sh
# CI gate: a superset of the tier-1 verify (`go build ./... && go test
# ./...`, see ROADMAP.md). Adds gofmt, vet, uncached crash matrices, a
# race pass over the packages that exercise shared PM state, and the
# mutant kill matrix. The persistence discipline (store -> flush ->
# fence) is checked where it runs: the core, wal, cclhash, torture and
# baseline test pools run pmem's StrictPersist.
set -eux

cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go build ./...
go vet ./...
go test ./...
# The crash matrices race the foreground against the background GC, so
# their verdict depends on scheduling: run them uncached (a cached `ok`
# from an earlier tree once hid a lost-acknowledged-write bug from the
# line above) at the default GOMAXPROCS and with more Ps than this
# runner may have cores. The first GC round after a recovery, which
# copies or flushes the slots replay filled, runs on the background GC
# goroutine too. The crash suite (internal/core/crashtest) runs on the
# tree's rows in internal/core and on the hash table's in
# internal/cclhash, under the same test names; -crashtest.full sweeps
# the var-KV and hash rows at the fixed-key row's caps, where the line
# above samples them (~2 min a run on two cores).
crash='TestCrashAtEveryFlushBoundary|TestCrashInsideRecovery|TestCrashInsideCarveRecord|TestCrashInsideSharedWave|TestCrashInsideOverflowReplay|TestCrashInFirstGCRound|TestCrashMidGC'
go test -count=1 -timeout 30m -run "$crash" ./internal/core ./internal/cclhash -crashtest.full
GOMAXPROCS=4 go test -count=1 -timeout 30m -run "$crash" ./internal/core ./internal/cclhash -crashtest.full
# A group holds several node locks at once while GC rounds try-lock
# along the chain; a deadlock or a lost write there shows only under
# some schedules, so race groups against GC uncached with spare Ps too.
GOMAXPROCS=4 go test -count=1 -run 'TestApplyBatchConcurrentWithGC' ./internal/core
# The write path's allocation ceilings (core tree, churn, and the public
# Session entries above it) count objects, so a cached pass from an
# earlier tree would hide a regression: run them uncached.
go test -count=1 -run 'TestUpsertAllocCeiling' ./internal/core
go test -count=1 -run 'TestSessionWriteAllocCeiling' .
# The hash table runs core's write path, GC and recovery through its
# bucket directory, so it races with the engine's own packages.
go test -race -short ./internal/core/... ./internal/cclhash/... ./internal/pmem/... ./internal/obs/...
go test -race -short ./internal/server
# Every comparison baseline runs on the shared primitives in
# internal/baselines/prim (LB+-Tree's CAS leaf lock included).
go test -race -short ./internal/baselines/...
# The figure harness starts every thread through pmem.Parallel (directly
# or through internal/bench's measure). Race the experiments that build their
# own threads on it rather than going through bench.Run; the whole
# package under -race takes ~50 s.
go test -race -short -run 'TestSmokeAllExperiments/(fig2|fig14|fig15b|fig17|batch|extension-hash)$' ./internal/bench
# The torture rounds drive the public DB through Sessions, on one shard
# and on four (multi-shard Apply, the cross-shard Range merge, parallel
# shard recovery).
go test -race -run TestTortureShort ./internal/torture
# A node's records and stamps are ticked in its lock's order whatever
# socket draws them, and the oracles judge by the order the harness
# observed: with spare processors, a cross-socket reordering shows up as
# a lost update within a few runs. Run uncached.
GOMAXPROCS=2 go test -count=20 -run '^TestTortureShort$' ./internal/torture
# The benchmark's two-socket seating skips when the read-back after a
# crash finds an acknowledged update lost; fail on any skip.
twosockets=$(go test -count=20 -run TwoSockets -v ./benchmark)
if echo "$twosockets" | grep -q -- '--- SKIP'; then
    echo "$twosockets" | grep -A1 -- '--- SKIP' >&2
    exit 1
fi

# The acceptance tests — batch speedup, read scaling (8 threads >= 3x 1),
# shard scaling (8 shards >= 3x 1), the godoc examples — ran in `go test ./...` above and are not repeated
# here. Regressions in the numbers are judged per PR by BENCHMARK.json
# (benchmark/run.sh -compare), both sides re-measured.
go test -race -run 'TestPublicBatch|TestPublicRange' .

# The kill matrix: every named and generated source mutant against its
# package's strict tests, the torture oracles, the race detector and
# the goldens (internal/torture/mutants_test.go). Only a
# run that names TestMutants scores every row (~30 min on two cores);
# `go test ./...` scores one. It prints one MUTANT line per cell; grep
# proves the matrix ran rather than silently skipping.
mutants=$(go test -count=1 -timeout 60m -run TestMutants -v ./internal/torture)
echo "$mutants" | grep MUTANT

# Observability-tier gates. First the profiler overhead budget: the
# instrumented lock sites, heat touches and span records must stay
# allocation-free and under obs.ProfilerBudgetNS each (the test prints
# one OBS_OVERHEAD line per path; grep proves it ran rather than
# silently skipping).
obs_overhead=$(go test -run TestObsOverheadBudget -count=1 -v ./internal/obs)
echo "$obs_overhead" | grep OBS_OVERHEAD

# Serving-tier gates. The cclserve smoke starts the server, drives the
# load generator for a bounded self-verifying run, and shuts down
# gracefully — any load error, misread, or post-Close acceptance makes
# the binary exit non-zero (set -e fails the script). The sharded DB's
# crash rounds are TestTortureShort's sharded rows, raced above.
servedir=$(mktemp -d)
go build -o "$servedir/cclserve" ./cmd/cclserve
"$servedir/cclserve" -bench -shards 4 -clients 16 -ops 20000 > "$servedir/serve.json"
grep -q '"misread": 0' "$servedir/serve.json"
rm -rf "$servedir"

# Short fuzz smokes: each target gets 10s of coverage-guided input
# generation on top of its checked-in corpus. FuzzRecoveryScan runs the
# inspector (ccldump's Inspect) on every poked image before Open, so it
# covers both readers of an untrusted image.
go test -run '^$' -fuzz FuzzWALRecordParse -fuzztime 10s ./internal/wal
go test -run '^$' -fuzz FuzzRecoveryScan -fuzztime 10s ./internal/core
go test -run '^$' -fuzz FuzzVarKVRoundTrip -fuzztime 10s ./internal/core
go test -run '^$' -fuzz FuzzInnerTree -fuzztime 10s ./internal/core
