package cclhash

import (
	"testing"

	"cclbtree/internal/core"
	"cclbtree/internal/core/crashtest"
)

// The engine's crash suite (internal/core/crashtest) on the hash table:
// 32 home buckets, so that the suite's key spaces grow overflow chains.
// The row samples its crash points in `go test ./...`; scripts/check.sh
// runs it at the fixed-key tree's caps (-crashtest.full).
var hashRow = crashtest.Row{Name: "hash", Dir: func() core.Directory { return newBuckets(32) }, Light: true}

func TestCrashAtEveryFlushBoundary(t *testing.T)        { crashtest.FlushBoundaries(t, hashRow) }
func TestCrashAtEveryFlushBoundaryBatched(t *testing.T) { crashtest.FlushBoundariesBatched(t, hashRow) }
func TestCrashInsideRecovery(t *testing.T)              { crashtest.InsideRecovery(t, hashRow) }
func TestCrashInsideCarveRecord(t *testing.T)           { crashtest.InsideCarveRecord(t, hashRow) }
func TestCrashTwiceBeforeGC(t *testing.T)               { crashtest.TwiceBeforeGC(t, hashRow) }
func TestCrashInFirstGCRound(t *testing.T)              { crashtest.InFirstGCRound(t, hashRow) }
func TestCrashRoundsBoundTheLog(t *testing.T)           { crashtest.RoundsBoundTheLog(t, hashRow) }
func TestCrashMidGC(t *testing.T)                       { crashtest.MidGC(t, hashRow) }
