// Package spef reads and writes a SPEF-flavoured exchange format for the
// star-topology parasitics this reproduction uses: per net, one branch per
// sink with its routed length, resistance and capacitance, plus the wire
// technology constants. It plays the role of the extracted-parasitics file
// a signoff flow would read.
package spef

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"insta/internal/netlist"
	"insta/internal/num"
	"insta/internal/rc"
)

// Write emits parasitics for design d.
func Write(w io.Writer, par *rc.Parasitics, d *netlist.Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "*SPEF insta v1\n")
	fmt.Fprintf(bw, "*DESIGN %s\n", d.Name)
	p := par.Params
	fmt.Fprintf(bw, "*PARAMS %.17g %.17g %.17g %.17g %.17g\n",
		p.RPerUnit, p.CPerUnit, p.MinLen, p.WireSigmaFrac, p.SlewDegrade)
	for ni := range d.Nets {
		net := &d.Nets[ni]
		// Nets are keyed by their driver pin's name, which is stable across
		// netlist round-trips (net names are not).
		fmt.Fprintf(bw, "*D_NET %s %d\n", d.Pins[net.Driver].Name, len(par.Nets[ni].Branch))
		for si, b := range par.Nets[ni].Branch {
			fmt.Fprintf(bw, "*BRANCH %d %.17g %.17g %.17g\n", si, b.Len, b.R, b.C)
		}
	}
	fmt.Fprintf(bw, "*END\n")
	return bw.Flush()
}

// Read parses parasitics written by Write back against design d (nets are
// matched by name and must cover the whole design, each once). Every number
// must be finite, and a net's branches come in index order.
func Read(r io.Reader, d *netlist.Design) (*rc.Parasitics, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	netByName := make(map[string]netlist.NetID, len(d.Nets))
	for i := range d.Nets {
		netByName[d.Pins[d.Nets[i].Driver].Name] = netlist.NetID(i)
	}

	par := &rc.Parasitics{Nets: make([]rc.Net, len(d.Nets))}
	seen := make([]bool, len(d.Nets))
	var cur netlist.NetID = -1
	expectBranches := 0
	lineNo := 0

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "*END":
			continue
		case strings.HasPrefix(line, "*SPEF"):
			if !strings.Contains(line, "insta v1") {
				return nil, fmt.Errorf("spef: line %d: unsupported dialect %q", lineNo, line)
			}
		case strings.HasPrefix(line, "*DESIGN "):
			name := strings.TrimSpace(strings.TrimPrefix(line, "*DESIGN "))
			if name != d.Name {
				return nil, fmt.Errorf("spef: design %q does not match netlist %q", name, d.Name)
			}
		case strings.HasPrefix(line, "*PARAMS "):
			f := strings.Fields(strings.TrimPrefix(line, "*PARAMS "))
			if len(f) != 5 {
				return nil, fmt.Errorf("spef: line %d: bad PARAMS", lineNo)
			}
			var vals [5]float64
			if err := parseNums(f, vals[:]); err != nil {
				return nil, fmt.Errorf("spef: line %d: %w", lineNo, err)
			}
			par.Params = rc.Params{
				RPerUnit: vals[0], CPerUnit: vals[1], MinLen: vals[2],
				WireSigmaFrac: vals[3], SlewDegrade: vals[4],
			}
		case strings.HasPrefix(line, "*D_NET "):
			f := strings.Fields(strings.TrimPrefix(line, "*D_NET "))
			if len(f) != 2 {
				return nil, fmt.Errorf("spef: line %d: bad D_NET", lineNo)
			}
			id, ok := netByName[f[0]]
			if !ok {
				return nil, fmt.Errorf("spef: line %d: unknown net %q", lineNo, f[0])
			}
			if seen[id] {
				return nil, fmt.Errorf("spef: line %d: net of %q repeated", lineNo, f[0])
			}
			n, err := strconv.Atoi(f[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("spef: line %d: bad branch count %q", lineNo, f[1])
			}
			if n != len(d.Nets[id].Sinks) {
				return nil, fmt.Errorf("spef: line %d: net of %q has %d branches for %d sinks",
					lineNo, f[0], n, len(d.Nets[id].Sinks))
			}
			cur = id
			seen[id] = true
			expectBranches = n
			if n > 0 {
				par.Nets[id].Branch = make([]rc.Branch, 0, n)
			}
		case strings.HasPrefix(line, "*BRANCH "):
			if cur < 0 || expectBranches == 0 {
				return nil, fmt.Errorf("spef: line %d: BRANCH outside D_NET", lineNo)
			}
			f := strings.Fields(strings.TrimPrefix(line, "*BRANCH "))
			if len(f) != 4 {
				return nil, fmt.Errorf("spef: line %d: bad BRANCH", lineNo)
			}
			next := len(par.Nets[cur].Branch)
			if i, err := strconv.Atoi(f[0]); err != nil || i != next {
				return nil, fmt.Errorf("spef: line %d: branch %q where branch %d is next", lineNo, f[0], next)
			}
			var vals [3]float64
			if err := parseNums(f[1:], vals[:]); err != nil {
				return nil, fmt.Errorf("spef: line %d: %w", lineNo, err)
			}
			par.Nets[cur].Branch = append(par.Nets[cur].Branch, rc.Branch{Len: vals[0], R: vals[1], C: vals[2]})
			expectBranches--
		default:
			return nil, fmt.Errorf("spef: line %d: unrecognized %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("spef: net of %q missing from file", d.Pins[d.Nets[i].Driver].Name)
		}
	}
	if err := par.Validate(d); err != nil {
		return nil, err
	}
	return par, nil
}

// parseNums parses each field into vals (num.ParseFinite): a single
// non-finite parasitic would reach delay calculation and every queue
// downstream of it.
func parseNums(fields []string, vals []float64) error {
	for i, s := range fields {
		v, err := num.ParseFinite(s)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	return nil
}
