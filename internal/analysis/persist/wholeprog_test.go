package persist

import (
	"path/filepath"
	"testing"
)

// TestMultiHopDischargeIsCredited pins what iterating the summary pass
// to a fixpoint over the call-graph SCCs buys. In wholeprog.go hop1's
// only discharge is a call to hop2, and evenPersist/oddPersist discharge
// only through each other: a helper credited just for what its own body
// does would leave callerTwoHop and callerMutualRecursion flagged. The
// fixpoint credits both, while still refusing the pingLeak pair whose
// bail-out path skips the persist.
func TestMultiHopDischargeIsCredited(t *testing.T) {
	an := NewAnalyzer()
	if err := an.AddFile(filepath.Join("testdata", "wholeprog.go"), nil); err != nil {
		t.Fatal(err)
	}
	leaks := map[string]bool{}
	for _, f := range an.Run() {
		if f.Code == CodeStoreNoPersist {
			leaks[f.Func] = true
		}
	}
	if len(leaks) != 1 || !leaks["callerMutualLeak"] {
		t.Errorf("PL001 in %v, want exactly callerMutualLeak (callerTwoHop and callerMutualRecursion discharge through their callees)", leaks)
	}
}
