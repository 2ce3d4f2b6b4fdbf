// Package sdcio reads and writes the Synopsys Design Constraints (SDC)
// subset this reproduction uses: create_clock, clock uncertainties, IO
// timing context, false paths and multicycle paths. Input-delay sigma (a
// POCV attribute with no standard SDC spelling) travels in an `#insta:`
// comment so constraint files round-trip losslessly.
package sdcio

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"insta/internal/netlist"
	"insta/internal/num"
	"insta/internal/sdc"
)

// Write emits the constraints as SDC text, resolving pin ids to names via d.
func Write(w io.Writer, con *sdc.Constraints, d *netlist.Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# insta SDC\n")
	if con.Clock.Name != "" {
		fmt.Fprintf(bw, "create_clock -name %s -period %.17g\n", con.Clock.Name, con.Clock.Period)
	} else {
		fmt.Fprintf(bw, "create_clock -period %.17g\n", con.Clock.Period)
	}
	if con.Clock.Uncertainty != 0 {
		fmt.Fprintf(bw, "set_clock_uncertainty -setup %.17g [get_clocks %s]\n",
			con.Clock.Uncertainty, con.Clock.Name)
	}
	if con.Clock.HoldUncertainty != 0 {
		fmt.Fprintf(bw, "set_clock_uncertainty -hold %.17g [get_clocks %s]\n",
			con.Clock.HoldUncertainty, con.Clock.Name)
	}

	for _, p := range sortedPins(con.InputDelay) {
		dist := con.InputDelay[p]
		name := d.Pins[p].Name
		fmt.Fprintf(bw, "set_input_delay %.17g [get_ports %s]\n", dist.Mean, name)
		if dist.Std != 0 {
			fmt.Fprintf(bw, "#insta:input_sigma %s %.17g\n", name, dist.Std)
		}
	}
	for _, p := range sortedPinsF(con.InputSlew) {
		fmt.Fprintf(bw, "set_input_transition %.17g [get_ports %s]\n", con.InputSlew[p], d.Pins[p].Name)
	}
	for _, p := range sortedPinsF(con.OutputDelay) {
		fmt.Fprintf(bw, "set_output_delay %.17g [get_ports %s]\n", con.OutputDelay[p], d.Pins[p].Name)
	}
	for _, p := range sortedPinsF(con.OutputLoad) {
		fmt.Fprintf(bw, "set_load %.17g [get_ports %s]\n", con.OutputLoad[p], d.Pins[p].Name)
	}
	for _, ex := range con.Exceptions {
		var b strings.Builder
		switch ex.Kind {
		case sdc.FalsePath:
			b.WriteString("set_false_path")
		case sdc.Multicycle:
			fmt.Fprintf(&b, "set_multicycle_path %d", ex.Cycles)
		}
		if len(ex.From) > 0 {
			fmt.Fprintf(&b, " -from [get_pins {%s}]", joinPinNames(d, ex.From))
		}
		if len(ex.To) > 0 {
			fmt.Fprintf(&b, " -to [get_pins {%s}]", joinPinNames(d, ex.To))
		}
		fmt.Fprintf(bw, "%s\n", b.String())
	}
	return bw.Flush()
}

func joinPinNames(d *netlist.Design, pins []netlist.PinID) string {
	names := make([]string, len(pins))
	for i, p := range pins {
		names[i] = d.Pins[p].Name
	}
	return strings.Join(names, " ")
}

func sortedPins[V any](m map[netlist.PinID]V) []netlist.PinID {
	out := make([]netlist.PinID, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func sortedPinsF(m map[netlist.PinID]float64) []netlist.PinID { return sortedPins(m) }

// Read parses SDC text against design d.
func Read(r io.Reader, d *netlist.Design) (*sdc.Constraints, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	con := sdc.New(sdc.Clock{})
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "#insta:input_sigma "):
			f := strings.Fields(strings.TrimPrefix(line, "#insta:input_sigma "))
			if len(f) != 2 {
				return nil, fmt.Errorf("sdcio: line %d: bad input_sigma", lineNo)
			}
			p, err := lookupPin(d, f[0], lineNo)
			if err != nil {
				return nil, err
			}
			sigma, ok, err := number(f[1])
			if !ok || err != nil {
				return nil, fmt.Errorf("sdcio: line %d: input_sigma %q is not a finite number", lineNo, f[1])
			}
			dist := con.InputDelay[p]
			dist.Std = sigma
			con.InputDelay[p] = dist
		case strings.HasPrefix(line, "#"):
			continue
		case strings.HasPrefix(line, "create_clock"):
			args := tokenize(line)
			for i := 0; i < len(args); i++ {
				switch args[i] {
				case "-name":
					i++
					if con.Clock.Name = arg(args, i); strings.HasPrefix(con.Clock.Name, "-") {
						return nil, fmt.Errorf("sdcio: line %d: create_clock -name without a name", lineNo)
					}
				case "-period":
					i++
					v, ok, err := number(arg(args, i))
					if !ok || err != nil {
						return nil, fmt.Errorf("sdcio: line %d: create_clock -period %q is not a finite number", lineNo, arg(args, i))
					}
					con.Clock.Period = v
				}
			}
			if con.Clock.Period <= 0 {
				return nil, fmt.Errorf("sdcio: line %d: create_clock without positive -period", lineNo)
			}
		case strings.HasPrefix(line, "set_clock_uncertainty"):
			args := tokenize(line)
			hold := false
			val := 0.0
			seen := false
			for i := 1; i < len(args); i++ {
				switch {
				case args[i] == "-hold":
					hold = true
				case args[i] == "-setup":
				case args[i] == "get_clocks":
					i++ // the clock's name, whatever it spells
				default:
					v, ok, err := number(args[i])
					if err != nil {
						return nil, fmt.Errorf("sdcio: line %d: set_clock_uncertainty %w", lineNo, err)
					}
					if ok {
						val, seen = v, true
					}
				}
			}
			if !seen {
				return nil, fmt.Errorf("sdcio: line %d: set_clock_uncertainty without value", lineNo)
			}
			if hold {
				con.Clock.HoldUncertainty = val
			} else {
				con.Clock.Uncertainty = val
			}
		case strings.HasPrefix(line, "set_input_delay"):
			p, v, err := parsePortValue(d, line, "set_input_delay", lineNo)
			if err != nil {
				return nil, err
			}
			dist := con.InputDelay[p]
			dist.Mean = v
			con.InputDelay[p] = dist
		case strings.HasPrefix(line, "set_input_transition"):
			p, v, err := parsePortValue(d, line, "set_input_transition", lineNo)
			if err != nil {
				return nil, err
			}
			con.InputSlew[p] = v
		case strings.HasPrefix(line, "set_output_delay"):
			p, v, err := parsePortValue(d, line, "set_output_delay", lineNo)
			if err != nil {
				return nil, err
			}
			con.OutputDelay[p] = v
		case strings.HasPrefix(line, "set_load"):
			p, v, err := parsePortValue(d, line, "set_load", lineNo)
			if err != nil {
				return nil, err
			}
			con.OutputLoad[p] = v
		case strings.HasPrefix(line, "set_false_path"), strings.HasPrefix(line, "set_multicycle_path"):
			ex, err := parseException(d, line, lineNo)
			if err != nil {
				return nil, err
			}
			con.Exceptions = append(con.Exceptions, ex)
		default:
			return nil, fmt.Errorf("sdcio: line %d: unsupported command %q", lineNo, firstWord(line))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if con.Clock.Period <= 0 {
		return nil, fmt.Errorf("sdcio: no create_clock found")
	}
	return con, nil
}

// tokenize splits on whitespace treating [get_x {a b}] and [get_x a] as
// bracketed groups whose payload tokens are returned verbatim after a
// "get_*" marker token.
func tokenize(line string) []string {
	replacer := strings.NewReplacer("[", " ", "]", " ", "{", " ", "}", " ")
	return strings.Fields(replacer.Replace(line))
}

// number parses a token as a number: ok is false when it is not one, and err
// is set when it is one but not finite (num.ParseFinite).
func number(tok string) (v float64, ok bool, err error) {
	v, err = num.ParseFinite(tok)
	if _, bad := err.(*strconv.NumError); bad {
		return 0, false, nil
	}
	if err != nil {
		return 0, true, fmt.Errorf("value %w", err)
	}
	return v, true, nil
}

func firstWord(line string) string {
	if i := strings.IndexByte(line, ' '); i > 0 {
		return line[:i]
	}
	return line
}

func arg(args []string, i int) string {
	if i < len(args) {
		return args[i]
	}
	return ""
}

func lookupPin(d *netlist.Design, name string, lineNo int) (netlist.PinID, error) {
	p, ok := d.PinByName(name)
	if !ok {
		return 0, fmt.Errorf("sdcio: line %d: unknown pin/port %q", lineNo, name)
	}
	return p, nil
}

// parsePortValue handles `cmd <value> [get_ports name]`.
func parsePortValue(d *netlist.Design, line, cmd string, lineNo int) (netlist.PinID, float64, error) {
	args := tokenize(line)
	var val float64
	seenVal := false
	var pin netlist.PinID = netlist.NoPin
	for i := 1; i < len(args); i++ {
		a := args[i]
		if a == "get_ports" || a == "get_pins" {
			i++
			p, err := lookupPin(d, arg(args, i), lineNo)
			if err != nil {
				return 0, 0, err
			}
			pin = p
			continue
		}
		v, ok, err := number(a)
		if err != nil {
			return 0, 0, fmt.Errorf("sdcio: line %d: %s %w", lineNo, cmd, err)
		}
		if ok && !seenVal {
			val, seenVal = v, true
		}
	}
	if !seenVal || pin == netlist.NoPin {
		return 0, 0, fmt.Errorf("sdcio: line %d: malformed %s", lineNo, cmd)
	}
	return pin, val, nil
}

func parseException(d *netlist.Design, line string, lineNo int) (sdc.Exception, error) {
	ex := sdc.Exception{}
	if strings.HasPrefix(line, "set_multicycle_path") {
		ex.Kind = sdc.Multicycle
	}
	args := tokenize(line)
	mode := ""
	for i := 1; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-from":
			mode = "from"
		case a == "-to":
			mode = "to"
		case a == "get_pins" || a == "get_ports":
			continue
		default:
			if ex.Kind == sdc.Multicycle && ex.Cycles == 0 {
				if v, err := strconv.Atoi(a); err == nil {
					ex.Cycles = v
					continue
				}
			}
			p, err := lookupPin(d, a, lineNo)
			if err != nil {
				return ex, err
			}
			switch mode {
			case "from":
				ex.From = append(ex.From, p)
			case "to":
				ex.To = append(ex.To, p)
			default:
				return ex, fmt.Errorf("sdcio: line %d: pin %q outside -from/-to", lineNo, a)
			}
		}
	}
	if len(ex.From) == 0 && len(ex.To) == 0 {
		return ex, fmt.Errorf("sdcio: line %d: exception without -from or -to", lineNo)
	}
	if ex.Kind == sdc.Multicycle && ex.Cycles < 1 {
		return ex, fmt.Errorf("sdcio: line %d: multicycle without cycle count", lineNo)
	}
	return ex, nil
}
