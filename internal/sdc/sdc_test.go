package sdc

import (
	"math/rand"
	"slices"
	"testing"

	"insta/internal/netlist"
	"insta/internal/num"
)

func TestNewDefaults(t *testing.T) {
	c := New(Clock{Name: "clk", Period: 1000, Uncertainty: 20})
	if c.Clock.Period != 1000 || c.InputDelay == nil || c.OutputLoad == nil {
		t.Fatal("New did not initialize maps")
	}
	c.InputDelay[1] = num.Dist{Mean: 50, Std: 2}
	if c.InputDelay[1].Mean != 50 {
		t.Error("map write lost")
	}
}

func TestCompilePairExceptions(t *testing.T) {
	c := New(Clock{Period: 1000})
	c.Exceptions = []Exception{
		{Kind: FalsePath, From: []netlist.PinID{1, 2}, To: []netlist.PinID{10}},
		{Kind: Multicycle, From: []netlist.PinID{3}, To: []netlist.PinID{11}, Cycles: 2},
	}
	tab, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Lookup(1, 10).False || !tab.Lookup(2, 10).False {
		t.Error("false path pair not found")
	}
	if tab.Lookup(1, 11).False {
		t.Error("false path leaked to wrong endpoint")
	}
	if got := tab.Lookup(3, 11).CycleCount(); got != 2 {
		t.Errorf("multicycle cycles = %d, want 2", got)
	}
	if got := tab.Lookup(3, 10).CycleCount(); got != 1 {
		t.Errorf("untouched pair cycles = %d, want 1", got)
	}
}

func TestCompileOpenSides(t *testing.T) {
	c := New(Clock{Period: 1000})
	c.Exceptions = []Exception{
		{Kind: FalsePath, From: []netlist.PinID{5}},            // -from only: any endpoint
		{Kind: Multicycle, To: []netlist.PinID{20}, Cycles: 3}, // -to only: any startpoint
		{Kind: FalsePath, From: []netlist.PinID{7}, To: []netlist.PinID{21}},
	}
	tab, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Lookup(5, 99).False || !tab.Lookup(5, 20).False {
		t.Error("-from-any false path not applied")
	}
	if got := tab.Lookup(42, 20).CycleCount(); got != 3 {
		t.Errorf("-to-any multicycle = %d, want 3", got)
	}
	// Combination: pair false + to-any multicycle both apply.
	adj := tab.Lookup(7, 21)
	if !adj.False {
		t.Error("pair false path missing")
	}
}

func TestCompileRejectsFullyOpen(t *testing.T) {
	c := New(Clock{})
	c.Exceptions = []Exception{{Kind: FalsePath}}
	if _, err := c.Compile(); err == nil {
		t.Error("Compile accepted exception with no endpoints")
	}
}

func TestCompileRejectsBadMulticycle(t *testing.T) {
	c := New(Clock{})
	c.Exceptions = []Exception{{Kind: Multicycle, From: []netlist.PinID{1}, To: []netlist.PinID{2}, Cycles: 0}}
	if _, err := c.Compile(); err == nil {
		t.Error("Compile accepted multicycle with Cycles=0")
	}
}

func TestPrecedenceLargerCycleWins(t *testing.T) {
	c := New(Clock{})
	c.Exceptions = []Exception{
		{Kind: Multicycle, From: []netlist.PinID{1}, To: []netlist.PinID{2}, Cycles: 2},
		{Kind: Multicycle, From: []netlist.PinID{1}, To: []netlist.PinID{2}, Cycles: 4},
		{Kind: Multicycle, From: []netlist.PinID{1}, To: []netlist.PinID{2}, Cycles: 3},
	}
	tab, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Lookup(1, 2).CycleCount(); got != 4 {
		t.Errorf("cycles = %d, want 4", got)
	}
}

func TestEmpty(t *testing.T) {
	c := New(Clock{})
	tab, _ := c.Compile()
	if !tab.Empty() {
		t.Error("no exceptions should compile to Empty table")
	}
	c.Exceptions = []Exception{{Kind: FalsePath, From: []netlist.PinID{1}}}
	tab, _ = c.Compile()
	if tab.Empty() {
		t.Error("table with exceptions reported Empty")
	}
}

func TestKindString(t *testing.T) {
	if FalsePath.String() != "false_path" || Multicycle.String() != "multicycle" {
		t.Error("ExceptionKind.String misbehaves")
	}
}

// TestLookupMatchesExceptionList holds Lookup, which answers most pairs from
// its per-pin flags alone, to the exception list read directly, on every pair
// of a small pin range — the negative ids, which the flags cannot hold, and
// ids past the largest one named included — over random tables of pair,
// -from-only and -to-only exceptions.
func TestLookupMatchesExceptionList(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	pins := func() []netlist.PinID {
		var out []netlist.PinID
		for n := rng.Intn(3); len(out) < n; {
			out = append(out, netlist.PinID(rng.Intn(140)-4))
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		c := New(Clock{})
		for n := rng.Intn(6); len(c.Exceptions) < n; {
			e := Exception{Kind: FalsePath, From: pins(), To: pins()}
			if rng.Intn(2) == 0 {
				e.Kind, e.Cycles = Multicycle, 1+rng.Intn(4)
			}
			if len(e.From)+len(e.To) > 0 {
				c.Exceptions = append(c.Exceptions, e)
			}
		}
		tab, err := c.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for sp := netlist.PinID(-5); sp < 200; sp++ {
			for ep := netlist.PinID(-5); ep < 200; ep++ {
				var want Adjust
				for _, e := range c.Exceptions {
					if (len(e.From) == 0 || slices.Contains(e.From, sp)) && (len(e.To) == 0 || slices.Contains(e.To, ep)) {
						want.False = want.False || e.Kind == FalsePath
						if e.Kind == Multicycle {
							want.Cycles = max(want.Cycles, e.Cycles)
						}
					}
				}
				if got := tab.Lookup(sp, ep); got != want {
					t.Fatalf("trial %d: Lookup(%d, %d) = %+v, the exception list says %+v (%+v)", trial, sp, ep, got, want, c.Exceptions)
				}
			}
		}
	}
}
