package refsta

import (
	"insta/internal/netlist"
	"insta/internal/num"
)

// Hooks for the external golden test (golden_test.go cannot live in this
// package: internal/bench imports refsta). Arrivals and EarlyArrivals copy
// the list they return; a digest over block-1's ~60 M stored entries reads
// them in place instead.

// SP returns the entry's startpoint index.
func (a spArr) SP() int32 { return a.sp }

// Dist returns the entry's arrival distribution.
func (a spArr) Dist() num.Dist { return a.dist }

// StoredArrivals returns the stored late (or, with early set, early) arrival
// list of (rf, p) without copying it. The caller must not modify it.
func (e *Engine) StoredArrivals(rf int, p netlist.PinID, early bool) []spArr {
	if early {
		return e.arrMin[rf][p]
	}
	return e.arr[rf][p]
}
