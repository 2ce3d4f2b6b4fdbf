// Package vlog reads and writes the gate-level structural Verilog subset
// used by this reproduction: one flat module with scalar ports, wires, and
// named-port-connection cell instances. Clock-network structure (which has
// no netlist representation — flip-flop clock pins are fed by the modelled
// clock tree, as a signoff tool sees propagated clocks) rides along in
// structured `//insta:` comments so a written file reads back to an
// identical design.
package vlog

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"insta/internal/liberty"
	"insta/internal/netlist"
	"insta/internal/num"
)

// Write emits design d as structural Verilog. Net, cell and port names are
// emitted verbatim (the generator produces identifier-safe names).
func Write(w io.Writer, d *netlist.Design, lib *liberty.Library) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "// insta structural netlist\n")
	fmt.Fprintf(bw, "module %s (", identify(d.Name))

	var ports []string
	for _, p := range d.PortIns {
		ports = append(ports, identify(d.Pins[p].Name))
	}
	for _, p := range d.PortOuts {
		ports = append(ports, identify(d.Pins[p].Name))
	}
	fmt.Fprintf(bw, "%s);\n", strings.Join(ports, ", "))

	for _, p := range d.PortIns {
		fmt.Fprintf(bw, "  input %s;\n", identify(d.Pins[p].Name))
	}
	for _, p := range d.PortOuts {
		fmt.Fprintf(bw, "  output %s;\n", identify(d.Pins[p].Name))
	}
	for ni := range d.Nets {
		net := &d.Nets[ni]
		// Nets driven by or sinking into a port reuse the port name; all
		// others get a wire declaration.
		if d.Pins[net.Driver].Cell == netlist.NoCell {
			continue
		}
		if len(net.Sinks) == 1 && d.Pins[net.Sinks[0]].Cell == netlist.NoCell {
			continue
		}
		fmt.Fprintf(bw, "  wire %s;\n", identify(net.Name))
	}

	// Ports that share a multi-sink net with other loads need an explicit
	// continuous assignment.
	for ni := range d.Nets {
		net := &d.Nets[ni]
		ref := netRef(d, netlist.NetID(ni))
		for _, sk := range net.Sinks {
			pin := &d.Pins[sk]
			if pin.Cell == netlist.NoCell && identify(pin.Name) != ref {
				fmt.Fprintf(bw, "  assign %s = %s;\n", identify(pin.Name), ref)
			}
		}
	}

	for ci := range d.Cells {
		cell := &d.Cells[ci]
		lc := lib.Cell(cell.LibCell)
		fmt.Fprintf(bw, "  %s %s (", lc.Name, identify(cell.Name))
		var conns []string
		for _, p := range cell.Pins {
			pin := &d.Pins[p]
			local := d.LocalPinName(p)
			if pin.IsClock {
				continue // fed by the clock tree, carried in the sidecar
			}
			if pin.Net == netlist.NoNet {
				continue
			}
			conns = append(conns, fmt.Sprintf(".%s(%s)", local, netRef(d, pin.Net)))
		}
		fmt.Fprintf(bw, "%s);\n", strings.Join(conns, ", "))
	}
	fmt.Fprintf(bw, "endmodule\n\n")

	// Clock-network sidecar.
	if ct := d.Clock; ct != nil {
		fmt.Fprintf(bw, "//insta:clocktree %d\n", ct.NumNodes())
		for i := 0; i < ct.NumNodes(); i++ {
			fmt.Fprintf(bw, "//insta:clocknode %d %d %.17g %.17g\n",
				i, ct.Parent[i], ct.Edge[i].Mean, ct.Edge[i].Std)
		}
		type bind struct {
			pin  string
			node int32
		}
		var binds []bind
		for p, n := range ct.Sinks() {
			binds = append(binds, bind{d.Pins[p].Name, n})
		}
		sort.Slice(binds, func(a, b int) bool { return binds[a].pin < binds[b].pin })
		for _, b := range binds {
			fmt.Fprintf(bw, "//insta:clockpin %s %d\n", b.pin, b.node)
		}
	}
	// Placement sidecar.
	fmt.Fprintf(bw, "//insta:placement\n")
	for ci := range d.Cells {
		c := &d.Cells[ci]
		fmt.Fprintf(bw, "//insta:cellpos %s %.17g %.17g %.17g %d\n",
			identify(c.Name), c.X, c.Y, c.Width, boolInt(c.Fixed))
	}
	for _, p := range append(append([]netlist.PinID(nil), d.PortIns...), d.PortOuts...) {
		fmt.Fprintf(bw, "//insta:portpos %s %.17g %.17g\n",
			identify(d.Pins[p].Name), d.Pins[p].X, d.Pins[p].Y)
	}
	return bw.Flush()
}

// netRef names the signal attached to a net: the driving input port's name,
// the output port's name for a single-sink port net, otherwise the wire
// name.
func netRef(d *netlist.Design, n netlist.NetID) string {
	net := &d.Nets[n]
	if d.Pins[net.Driver].Cell == netlist.NoCell {
		return identify(d.Pins[net.Driver].Name)
	}
	if len(net.Sinks) == 1 && d.Pins[net.Sinks[0]].Cell == netlist.NoCell {
		return identify(d.Pins[net.Sinks[0]].Name)
	}
	return identify(net.Name)
}

func identify(s string) string { return s }

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Read parses a file produced by Write back into a design bound to lib.
func Read(r io.Reader, lib *liberty.Library) (*netlist.Design, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	var d *netlist.Design
	var inputs, outputs []string
	assigns := map[string]string{} // output port -> driving signal
	type inst struct {
		libCell int32
		name    string
		conns   map[string]string // pin -> signal
	}
	var insts []inst

	// The pragmas' numbers are parsed where they stand, so an error names
	// its line; a clock pin's node is range-checked once the tree is built.
	type clockNode struct {
		parent int32
		edge   num.Dist
	}
	type clockPin struct {
		pin        string
		node, line int
	}
	type cellPlace struct {
		x, y, width float64
		fixed       bool
	}
	var clockNodes []clockNode
	var clockPins []clockPin
	cellPos := map[string]cellPlace{}
	portPos := map[string][2]float64{}

	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "endmodule":
			continue
		case strings.HasPrefix(line, "//insta:clocktree"):
			continue
		case strings.HasPrefix(line, "//insta:clocknode "):
			f := strings.Fields(strings.TrimPrefix(line, "//insta:clocknode "))
			if len(f) != 4 {
				return nil, fmt.Errorf("vlog: line %d: bad clocknode", lineNo)
			}
			var edge num.Dist
			id, err := strconv.Atoi(f[0])
			if err != nil || id != len(clockNodes) {
				return nil, fmt.Errorf("vlog: line %d: clocknode id %q is not the next node, %d", lineNo, f[0], len(clockNodes))
			}
			parent, err := strconv.ParseInt(f[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("vlog: line %d: clocknode parent: %w", lineNo, err)
			}
			if err := parseNums(f[2:], &edge.Mean, &edge.Std); err != nil {
				return nil, fmt.Errorf("vlog: line %d: clocknode: %w", lineNo, err)
			}
			if edge.Std < 0 {
				return nil, fmt.Errorf("vlog: line %d: clocknode sigma %q is negative", lineNo, f[3])
			}
			clockNodes = append(clockNodes, clockNode{int32(parent), edge})
		case strings.HasPrefix(line, "//insta:clockpin "):
			f := strings.Fields(strings.TrimPrefix(line, "//insta:clockpin "))
			if len(f) != 2 {
				return nil, fmt.Errorf("vlog: line %d: bad clockpin", lineNo)
			}
			node, err := strconv.ParseInt(f[1], 10, 32)
			if err != nil || node < 0 {
				return nil, fmt.Errorf("vlog: line %d: clockpin %q bad node %q", lineNo, f[0], f[1])
			}
			clockPins = append(clockPins, clockPin{f[0], int(node), lineNo})
		case strings.HasPrefix(line, "//insta:cellpos "):
			f := strings.Fields(strings.TrimPrefix(line, "//insta:cellpos "))
			if len(f) != 5 {
				return nil, fmt.Errorf("vlog: line %d: bad cellpos", lineNo)
			}
			var c cellPlace
			if err := parseNums(f[1:4], &c.x, &c.y, &c.width); err != nil {
				return nil, fmt.Errorf("vlog: line %d: cellpos: %w", lineNo, err)
			}
			if f[4] != "0" && f[4] != "1" {
				return nil, fmt.Errorf("vlog: line %d: cellpos fixed flag %q is not 0 or 1", lineNo, f[4])
			}
			c.fixed = f[4] == "1"
			cellPos[f[0]] = c
		case strings.HasPrefix(line, "//insta:portpos "):
			f := strings.Fields(strings.TrimPrefix(line, "//insta:portpos "))
			if len(f) != 3 {
				return nil, fmt.Errorf("vlog: line %d: bad portpos", lineNo)
			}
			var xy [2]float64
			if err := parseNums(f[1:], &xy[0], &xy[1]); err != nil {
				return nil, fmt.Errorf("vlog: line %d: portpos: %w", lineNo, err)
			}
			portPos[f[0]] = xy
		case strings.HasPrefix(line, "//insta:placement"), strings.HasPrefix(line, "//"):
			continue
		case strings.HasPrefix(line, "module "):
			name := strings.TrimSpace(strings.TrimPrefix(line, "module "))
			if i := strings.IndexByte(name, '('); i >= 0 {
				name = strings.TrimSpace(name[:i])
			}
			d = netlist.New(name)
		case strings.HasPrefix(line, "input "), strings.HasPrefix(line, "output "), strings.HasPrefix(line, "wire "):
			kind, name, _ := strings.Cut(line, " ")
			if name = trimDecl(name, ""); !isName(name) {
				return nil, fmt.Errorf("vlog: line %d: bad %s name %q", lineNo, kind, name)
			}
			// A wire declares nothing a connection does not: nets are
			// built from the signals instances and ports name.
			switch kind {
			case "input":
				inputs = append(inputs, name)
			case "output":
				outputs = append(outputs, name)
			}
		case strings.HasPrefix(line, "assign "):
			body := trimDecl(line, "assign ")
			parts := strings.SplitN(body, "=", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("vlog: line %d: bad assign", lineNo)
			}
			assigns[strings.TrimSpace(parts[0])] = strings.TrimSpace(parts[1])
		default:
			in, err := parseInstance(line, lib)
			if err != nil {
				return nil, fmt.Errorf("vlog: line %d: %w", lineNo, err)
			}
			insts = append(insts, in)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if d == nil {
		return nil, fmt.Errorf("vlog: no module declaration found")
	}

	// Build: ports, cells + pins, then nets from the signal map.
	signalDriver := map[string]netlist.PinID{}
	signalSinks := map[string][]netlist.PinID{}

	for _, name := range inputs {
		p := d.AddPort(name, netlist.Input)
		signalDriver[name] = p
	}
	for _, name := range outputs {
		p := d.AddPort(name, netlist.Output)
		sig := name
		if alias, ok := assigns[name]; ok {
			sig = alias
		}
		signalSinks[sig] = append(signalSinks[sig], p)
	}
	for _, in := range insts {
		lc := lib.Cell(in.libCell)
		c := d.AddCell(in.name, in.libCell, lc.Seq)
		if pos, ok := cellPos[in.name]; ok {
			d.Cells[c].X, d.Cells[c].Y, d.Cells[c].Width, d.Cells[c].Fixed = pos.x, pos.y, pos.width, pos.fixed
		} else {
			d.Cells[c].Width = lc.Area
		}
		for _, pn := range lc.Inputs {
			isClock := lc.Seq && pn == lc.ClockPin
			pin := d.AddPin(c, pn, netlist.Input, isClock)
			if sig, ok := in.conns[pn]; ok && !isClock {
				signalSinks[sig] = append(signalSinks[sig], pin)
			}
		}
		for _, pn := range lc.Outputs {
			pin := d.AddPin(c, pn, netlist.Output, false)
			if sig, ok := in.conns[pn]; ok {
				signalDriver[sig] = pin
			}
		}
	}
	// Write names a net whose one sink is an output port after the port, so
	// an assigned output's own name must not be a second signal.
	for _, name := range outputs {
		if alias, ok := assigns[name]; ok && alias != name {
			if _, driven := signalDriver[name]; driven {
				return nil, fmt.Errorf("vlog: output %q is assigned from %q and driven as %q too", name, alias, name)
			}
		}
	}
	// Nets. Wires without a declared name (port-named signals) included.
	var signals []string
	for sig := range signalDriver {
		signals = append(signals, sig)
	}
	sort.Strings(signals)
	for _, sig := range signals {
		n := d.AddNet(sig, signalDriver[sig])
		d.Connect(n, signalSinks[sig]...)
	}

	// Clock tree.
	if len(clockNodes) > 0 {
		var ct *netlist.ClockTree
		for _, cn := range clockNodes {
			if ct == nil {
				if cn.parent != -1 {
					return nil, fmt.Errorf("vlog: first clock node is not the root")
				}
				ct = netlist.NewClockTree(cn.edge)
				continue
			}
			ct.AddNode(cn.parent, cn.edge)
		}
		for _, cp := range clockPins {
			pin, ok := d.PinByName(cp.pin)
			if !ok {
				return nil, fmt.Errorf("vlog: line %d: clockpin %q not in design", cp.line, cp.pin)
			}
			if cp.node >= ct.NumNodes() {
				return nil, fmt.Errorf("vlog: line %d: clockpin %q bad node %d", cp.line, cp.pin, cp.node)
			}
			ct.BindSink(pin, int32(cp.node))
		}
		if err := ct.Finalize(); err != nil {
			return nil, err
		}
		d.Clock = ct
	}
	for p := range d.Pins {
		if pos, ok := portPos[d.Pins[p].Name]; ok && d.Pins[p].Cell == netlist.NoCell {
			d.Pins[p].X, d.Pins[p].Y = pos[0], pos[1]
		}
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("vlog: parsed design invalid: %w", err)
	}
	return d, nil
}

// parseNums parses each field into the value it points at (num.ParseFinite).
func parseNums(fields []string, vals ...*float64) error {
	for i, s := range fields {
		v, err := num.ParseFinite(s)
		if err != nil {
			return err
		}
		*vals[i] = v
	}
	return nil
}

// isName reports whether s can name a port, wire or signal: one token, so
// the placement pragmas Write adds can carry it back.
func isName(s string) bool {
	return s != "" && strings.IndexFunc(s, unicode.IsSpace) < 0
}

func trimDecl(line, prefix string) string {
	s := strings.TrimPrefix(line, prefix)
	return strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), ";"))
}

// parseInstance parses `LIBCELL name (.A(n1), .B(n2));`.
func parseInstance(line string, lib *liberty.Library) (struct {
	libCell int32
	name    string
	conns   map[string]string
}, error) {
	var out struct {
		libCell int32
		name    string
		conns   map[string]string
	}
	open := strings.IndexByte(line, '(')
	if open < 0 || !strings.HasSuffix(line, ");") {
		return out, fmt.Errorf("unparseable statement %q", line)
	}
	head := strings.Fields(line[:open])
	if len(head) != 2 {
		return out, fmt.Errorf("bad instance head %q", line[:open])
	}
	id, ok := lib.CellByName(head[0])
	if !ok {
		return out, fmt.Errorf("unknown library cell %q", head[0])
	}
	out.libCell = id
	out.name = head[1]
	out.conns = map[string]string{}
	body := strings.TrimSuffix(line[open+1:], ");")
	for _, part := range strings.Split(body, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.HasPrefix(part, ".") {
			return out, fmt.Errorf("positional connections unsupported: %q", part)
		}
		lp := strings.IndexByte(part, '(')
		if lp < 0 || !strings.HasSuffix(part, ")") {
			return out, fmt.Errorf("bad connection %q", part)
		}
		pin := part[1:lp]
		sig := strings.TrimSpace(strings.TrimSuffix(part[lp+1:], ")"))
		if !isName(sig) {
			return out, fmt.Errorf("bad signal name %q", sig)
		}
		out.conns[pin] = sig
	}
	return out, nil
}
