// Package rc models interconnect parasitics and wire delay for the reference
// STA engine: a star RC topology per net, Elmore branch delays, PERI-style
// slew degradation, and a POCV wire-delay sigma. Parasitics are derived from
// placement geometry (FromPlacement) or read from SPEF (internal/spef).
package rc

import (
	"fmt"
	"math"

	"insta/internal/netlist"
	"insta/internal/num"
)

// Params are the technology wire constants.
type Params struct {
	RPerUnit      float64 // wire resistance per unit length, ps/fF/unit
	CPerUnit      float64 // wire capacitance per unit length, fF/unit
	MinLen        float64 // floor wirelength per branch (local routing), units
	WireSigmaFrac float64 // POCV sigma of wire delay as a fraction of its mean
	SlewDegrade   float64 // PERI coefficient: added slew = coeff * wire delay
}

// DefaultParams returns wire constants representative of a dense lower metal
// stack: 1 length unit = 1 placement site. The values are tuned so that an
// average unbuffered block-scale net contributes delay comparable to a gate
// stage (signoff netlists are buffered; these generated ones are not).
func DefaultParams() Params {
	return Params{
		RPerUnit:      0.004,
		CPerUnit:      0.012,
		MinLen:        2,
		WireSigmaFrac: 0.04,
		SlewDegrade:   2.2,
	}
}

// Branch is one driver→sink wire segment of a star net.
type Branch struct {
	Len float64 // routed length, units
	R   float64 // branch resistance, ps/fF
	C   float64 // branch wire capacitance, fF
}

// Net is the parasitic model of one net: independent branches from the driver
// node to each sink (star topology).
type Net struct {
	Branch []Branch // indexed like netlist.Net.Sinks
}

// WireCap returns the total wire capacitance seen by the net's driver.
func (n *Net) WireCap() float64 {
	var c float64
	for i := range n.Branch {
		c += n.Branch[i].C
	}
	return c
}

// Parasitics stores per-net parasitics for a design.
type Parasitics struct {
	Params Params
	Nets   []Net // indexed by netlist.NetID
}

// FromPlacement extracts parasitics from the design's current placement:
// each branch length is the Manhattan distance between driver and sink pin
// positions plus the MinLen local-routing floor.
func FromPlacement(d *netlist.Design, p Params) *Parasitics {
	par := &Parasitics{Params: p, Nets: make([]Net, len(d.Nets))}
	for i := range d.Nets {
		par.RebuildNet(d, netlist.NetID(i))
	}
	return par
}

// RebuildNet refreshes one net's parasitics from current pin positions.
// The placer calls this after moving cells.
func (par *Parasitics) RebuildNet(d *netlist.Design, id netlist.NetID) {
	net := &d.Nets[id]
	dx, dy := d.PinPos(net.Driver)
	branches := par.Nets[id].Branch
	if cap(branches) < len(net.Sinks) {
		branches = make([]Branch, len(net.Sinks))
	}
	branches = branches[:len(net.Sinks)]
	for s, sink := range net.Sinks {
		sx, sy := d.PinPos(sink)
		l := math.Abs(sx-dx) + math.Abs(sy-dy) + par.Params.MinLen
		branches[s] = branchFromLen(par.Params, l)
	}
	par.Nets[id].Branch = branches
}

func branchFromLen(p Params, l float64) Branch {
	return Branch{Len: l, R: p.RPerUnit * l, C: p.CPerUnit * l}
}

// BranchDelay returns the Elmore delay distribution of branch s of net id,
// given the sink pin's input capacitance: mean = R*(C/2 + Cpin), sigma =
// WireSigmaFrac * mean.
func (par *Parasitics) BranchDelay(id netlist.NetID, s int, sinkPinCap float64) num.Dist {
	b := par.Nets[id].Branch[s]
	mean := b.R * (b.C/2 + sinkPinCap)
	return num.Dist{Mean: mean, Std: par.Params.WireSigmaFrac * mean}
}

// DegradeSlew returns the sink slew after wire attenuation, PERI-style:
// sqrt(driverSlew^2 + (SlewDegrade*wireDelay)^2).
func (par *Parasitics) DegradeSlew(driverSlew, wireDelayMean float64) float64 {
	return math.Hypot(driverSlew, par.Params.SlewDegrade*wireDelayMean)
}

// Validate checks that every net's branch list matches its sink list.
func (par *Parasitics) Validate(d *netlist.Design) error {
	if len(par.Nets) != len(d.Nets) {
		return fmt.Errorf("rc: %d parasitic nets for %d design nets", len(par.Nets), len(d.Nets))
	}
	for i := range d.Nets {
		if len(par.Nets[i].Branch) != len(d.Nets[i].Sinks) {
			return fmt.Errorf("rc: net %q has %d branches for %d sinks",
				d.Nets[i].Name, len(par.Nets[i].Branch), len(d.Nets[i].Sinks))
		}
		for s, b := range par.Nets[i].Branch {
			if b.R < 0 || b.C < 0 || b.Len < 0 {
				return fmt.Errorf("rc: net %q branch %d has negative parasitics", d.Nets[i].Name, s)
			}
		}
	}
	return nil
}
