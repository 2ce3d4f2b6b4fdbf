package core

// State.Validate's rejections of inputs that would otherwise reach a kernel
// and crash it, and the engine keeping one copy of its options.

import (
	"strings"
	"testing"

	"insta/internal/obs"
)

// validState compiles a small design's state, which Validate accepts.
func validState(t *testing.T) *State {
	t.Helper()
	st, err := Compile(buildTables(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	return st
}

// expectInvalid fails t unless Validate rejects st with an error naming want.
func expectInvalid(t *testing.T, st *State, want string) {
	t.Helper()
	if err := st.Validate(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate = %v, want an error about %q", err, want)
	}
}

func TestStateValidateRejectsNegativePins(t *testing.T) {
	st := validState(t)
	st.NumPins = -1
	expectInvalid(t, st, "negative pin count")
}

// An arc's kind picks its row of the per-kind lane factors, which exist for
// cell (0) and net (1) arcs only.
func TestStateValidateRejectsArcKind(t *testing.T) {
	st := validState(t)
	st.ArcKind[len(st.ArcKind)-1] = 2
	expectInvalid(t, st, "kind 2")
}

// A second root leaves two clock nodes without a common ancestor, and
// Credit's walk would step off the tree.
func TestStateValidateRejectsClockForest(t *testing.T) {
	st := validState(t)
	last := len(st.ClkParent) - 1 // parents precede children: the last node is a leaf
	if last < 1 {
		t.Fatal("test design has a one-node clock network")
	}
	st.ClkParent[last], st.ClkDepth[last] = -1, 0
	expectInvalid(t, st, "one clock tree")
}

// TestReseedKeepsTracer: a tracer attached after construction is the
// engine's tracer, so the working engine a structural session forks, and
// reseeds, records to it.
func TestReseedKeepsTracer(t *testing.T) {
	e, err := NewEngine(buildTables(t, 2), Options{TopK: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run()
	tr := obs.NewTracer()
	e.SetTracer(tr)
	ne := e.Fork()
	defer ne.Close()
	if ne.Tracer() != tr {
		t.Fatal("Fork dropped the tracer attached with SetTracer")
	}
}
