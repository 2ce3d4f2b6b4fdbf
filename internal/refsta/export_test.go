package refsta

import (
	"testing"

	"insta/internal/liberty"
	"insta/internal/netlist"
	"insta/internal/num"
	"insta/internal/rc"
	"insta/internal/sdc"
)

// Hooks for the external tests (golden_test.go and lazy_test.go cannot live
// in this package: internal/bench imports refsta). Arrivals and EarlyArrivals
// copy the list they return; a digest over block-1's ~60 M stored entries
// reads them in place instead.

// SP returns the entry's startpoint index.
func (a spArr) SP() int32 { return a.sp }

// Dist returns the entry's arrival distribution.
func (a spArr) Dist() num.Dist { return a.dist }

// StoredArrivals returns the stored late (or, with early set, early) arrival
// list of (rf, p) without copying it, building the lists first like any
// reader; early lists are empty with hold off. The caller must not modify it.
func (e *Engine) StoredArrivals(rf int, p netlist.PinID, early bool) []spArr {
	e.arrivals()
	if early {
		if !e.HoldEnabled() {
			return nil
		}
		return e.arrMin[rf][p]
	}
	return e.arr[rf][p]
}

// ListsBuilt reports whether the arrival lists and slacks exist, without
// building them.
func (e *Engine) ListsBuilt() bool { return e.listed.Load() }

// ArrivalSweeps returns how many arrival sweeps the engine has run.
func (e *Engine) ArrivalSweeps() int { return e.arrivalSweeps }

// MiniDesign returns a fresh copy of refsta_test.go's six-cell design.
func MiniDesign(t testing.TB) (*netlist.Design, *liberty.Library, *sdc.Constraints, *rc.Parasitics) {
	m := buildMini(t)
	return m.d, m.lib, m.con, m.par
}
