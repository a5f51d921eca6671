package core_test

import (
	"testing"

	"cclbtree/internal/core"
	"cclbtree/internal/core/crashtest"
)

// The engine's crash suite (internal/core/crashtest) on the tree's two
// rows; internal/cclhash runs it on the hash table. The var-KV row
// samples its crash points in `go test ./...`; scripts/check.sh runs it
// at the fixed-key row's caps (-crashtest.full).
var (
	fixed = crashtest.Row{Name: "var=false"}
	varKV = crashtest.Row{Name: "var=true", Opts: core.Options{VarKV: true}, Light: true}
)

func TestCrashAtEveryFlushBoundary(t *testing.T) { crashtest.FlushBoundaries(t, fixed, varKV) }
func TestCrashAtEveryFlushBoundaryBatched(t *testing.T) {
	crashtest.FlushBoundariesBatched(t, fixed, varKV)
}
func TestCrashInsideCarveRecord(t *testing.T) { crashtest.InsideCarveRecord(t, fixed, varKV) }
func TestCrashTwiceBeforeGC(t *testing.T)     { crashtest.TwiceBeforeGC(t, fixed, varKV) }
func TestCrashInFirstGCRound(t *testing.T)    { crashtest.InFirstGCRound(t, fixed, varKV) }
func TestCrashRoundsBoundTheLog(t *testing.T) { crashtest.RoundsBoundTheLog(t, fixed, varKV) }
func TestCrashMidGC(t *testing.T)             { crashtest.MidGC(t, fixed, varKV) }

// TestCrashInsideRecovery also sweeps the tree's own shape: an empty
// leaf behind the head, which recovery's leaf walk unlinks (one
// persisted meta word) before it replays the log.
func TestCrashInsideRecovery(t *testing.T) {
	crashtest.InsideRecovery(t, fixed, varKV)
	t.Run("empty-leaf", func(t *testing.T) {
		crashtest.SweepRecovery(t, crashtest.NewImage(t, fixed, false, core.LinkEmptyLeaf))
	})
}
