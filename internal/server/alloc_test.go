package server_test

// Allocation-discipline unit test for the serving read path (DESIGN.md §12):
// once a session is warm, reading its full slack vector into a caller-owned
// buffer must not allocate — the overlay patch walk uses the no-copy changed
// endpoint view and the base copy grows the destination at most once.
// The benchmark's server.allocs_per_read rung counts the same path with HTTP
// around it on block-5.

import (
	"testing"

	"insta/internal/server"
)

func TestSessionSlacksReadAllocFree(t *testing.T) {
	mgr, _ := newTestManager(t, "des", 6, 2, server.Options{})
	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	deltas := arcDeltas(mgr.Engine(), 3, 37, 1.15)
	if _, err := sess.ApplyDeltas(deltas); err != nil {
		t.Fatal(err)
	}

	buf, err := sess.SlacksInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) == 0 {
		t.Fatal("empty slack vector — test design is vacuous")
	}
	a := testing.AllocsPerRun(20, func() {
		buf, err = sess.SlacksInto(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if a > 0.5 {
		t.Errorf("warm session slacks read: %.1f allocs/op, want 0", a)
	}
}
