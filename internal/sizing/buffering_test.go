package sizing

import (
	"testing"

	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/server"
)

// TestInstaBufferInsertsThroughSessions runs the full buffering flow against a
// live manager: every candidate is previewed in a structural session, and at
// least one must survive the strict TNS-improvement gate and commit — the
// end-to-end proof that EstimateBuffer's driver load shedding makes buffer
// insertion profitable, not just priced.
func TestInstaBufferInsertsThroughSessions(t *testing.T) {
	_, ref := buildSizing(t, 2)
	tab := circuitops.Extract(ref)
	e, err := core.NewEngine(tab, core.Options{TopK: 4, Tau: 0.01, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	origArcs := e.NumArcs()
	mgr := server.NewManager(e, ref, server.Options{MaxSessions: 2})
	defer mgr.Close()
	initialTNS := mgr.BaseTNS()

	res := InstaBuffer(mgr, DefaultBufferConfig())
	if res.Inserted < 1 {
		t.Fatalf("no buffers inserted (previewed %d over %d rounds): load shedding never improved TNS",
			res.Previewed, res.Rounds)
	}
	if res.Previewed < res.Inserted {
		t.Fatalf("previewed %d < inserted %d", res.Previewed, res.Inserted)
	}
	// Each committed insertion appends exactly two arcs (driver-side wire +
	// buffer cell arc) to the serving engine.
	if got, want := mgr.Engine().NumArcs(), origArcs+2*res.Inserted; got != want {
		t.Fatalf("engine arcs = %d, want %d (orig %d + 2×%d)", got, want, origArcs, res.Inserted)
	}
	if res.TNS <= initialTNS {
		t.Fatalf("committed TNS %v did not improve on initial %v", res.TNS, initialTNS)
	}
	if res.Runtime <= 0 {
		t.Fatal("runtime not recorded")
	}
	t.Logf("TNS %v -> %v, inserted %d (previewed %d, rounds %d)",
		initialTNS, res.TNS, res.Inserted, res.Previewed, res.Rounds)
}
