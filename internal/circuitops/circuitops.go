// Package circuitops is the extraction boundary between the reference
// signoff engine and INSTA, playing the role of the CircuitOps tabular
// format the paper extracts from PrimeTime with custom TCL (§III-A, Fig. 2):
// per-arc variational delay attributes with rise/fall and unateness, SP/EP
// attributes (launch clock distributions, per-startpoint-compatible required
// times), the propagated clock network table used for CPPR credit, and the
// timing exceptions. Tables round-trip through a TSV encoding.
package circuitops

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"insta/internal/netlist"
	"insta/internal/refsta"
	"insta/internal/sdc"
)

// ArcRow is the extracted annotation of one timing arc. Arc ids are the
// extraction order and are shared with the reference engine, so estimate_eco
// deltas can be re-annotated onto INSTA's graph directly.
type ArcRow struct {
	From, To          int32 // pin ids
	Kind              uint8 // 0 = cell arc, 1 = net arc
	Sense             uint8 // liberty.Unate
	Cell              int32 // owning cell for cell arcs, -1 for net arcs
	Net               int32 // net id for net arcs, -1 for cell arcs
	MeanRise, StdRise float64
	MeanFall, StdFall float64
}

// SPRow describes one timing startpoint.
type SPRow struct {
	Pin       int32
	ClockNode int32 // launch clock tree node (root for primary inputs)
	Mean, Std float64
}

// EPRow describes one timing endpoint. BaseReq is the single-cycle setup
// required time with zero CPPR credit:
// period + earlyCaptureClock - setup - uncertainty - externalMargin.
// HoldReq is the hold requirement with zero credit:
// lateCaptureClock + hold + holdUncertainty (+Inf for unchecked endpoints).
type EPRow struct {
	Pin         int32
	CaptureNode int32
	BaseReqRise float64
	BaseReqFall float64
	HoldReqRise float64
	HoldReqFall float64
}

// ClockNodeRow is one node of the propagated clock network: its parent and
// the accumulated root→node delay variance, which is all CPPR credit needs.
type ClockNodeRow struct {
	Parent int32 // -1 at the root
	CumVar float64
}

// ExceptionRow is one atomic exception: SPPin/EPPin of -1 means "any".
type ExceptionRow struct {
	SPPin, EPPin int32
	Kind         uint8 // sdc.ExceptionKind
	Cycles       int32
}

// Tables is the full extraction of one design.
type Tables struct {
	Design     string
	NumPins    int
	Period     float64
	NSigma     float64
	Arcs       []ArcRow
	SPs        []SPRow
	EPs        []EPRow
	ClockNodes []ClockNodeRow
	Exceptions []ExceptionRow
}

// Extract pulls the INSTA initialization tables out of a reference engine,
// the equivalent of the paper's multi-threaded TCL extraction.
func Extract(e *refsta.Engine) *Tables {
	t := &Tables{
		Design:  e.D.Name,
		NumPins: e.D.NumPins(),
		Period:  e.Con.Clock.Period,
		NSigma:  e.Cfg.NSigma,
	}
	t.Arcs = make([]ArcRow, len(e.Arcs))
	for i, a := range e.Arcs {
		row := ArcRow{
			From: int32(a.From), To: int32(a.To),
			Kind: uint8(a.Kind), Sense: uint8(a.Sense),
			Cell: int32(a.Cell), Net: int32(a.Net),
			MeanRise: a.Delay[0].Mean, StdRise: a.Delay[0].Std,
			MeanFall: a.Delay[1].Mean, StdFall: a.Delay[1].Std,
		}
		t.Arcs[i] = row
	}
	for i, p := range e.Startpoints() {
		var mean, std float64
		if e.D.Pins[p].IsClock {
			node, _ := e.D.Clock.SinkOf(p)
			d := e.D.Clock.Arrival(node)
			mean, std = d.Mean, d.Std
		} else {
			d := e.Con.InputDelay[p]
			mean, std = d.Mean, d.Std
		}
		t.SPs = append(t.SPs, SPRow{Pin: int32(p), ClockNode: e.SPNode[i], Mean: mean, Std: std})
	}
	for i, p := range e.Endpoints() {
		node := e.EPNode[i]
		early := 0.0
		if e.D.Clock != nil {
			early = e.D.Clock.Arrival(node).EarlyCorner(e.Cfg.NSigma)
		}
		ext := 0.0
		if e.D.Pins[p].Cell == netlist.NoCell {
			ext = e.Con.OutputDelay[p]
		}
		base := t.Period + early - e.Con.Clock.Uncertainty - ext
		row := EPRow{
			Pin:         int32(p),
			CaptureNode: node,
			BaseReqRise: base - e.EPSetup[i][0],
			BaseReqFall: base - e.EPSetup[i][1],
			HoldReqRise: math.Inf(1),
			HoldReqFall: math.Inf(1),
		}
		if pin := &e.D.Pins[p]; pin.Cell != netlist.NoCell {
			lc := e.Lib.Cell(e.D.Cells[pin.Cell].LibCell)
			late := 0.0
			if e.D.Clock != nil {
				late = e.D.Clock.Arrival(node).Corner(e.Cfg.NSigma)
			}
			row.HoldReqRise = late + lc.Hold[0] + e.Con.Clock.HoldUncertainty
			row.HoldReqFall = late + lc.Hold[1] + e.Con.Clock.HoldUncertainty
		}
		t.EPs = append(t.EPs, row)
	}
	if ct := e.D.Clock; ct != nil {
		cum := make([]float64, ct.NumNodes())
		for i := 0; i < ct.NumNodes(); i++ {
			v := ct.Edge[i].Std * ct.Edge[i].Std
			if p := ct.Parent[i]; p >= 0 {
				v += cum[p]
			}
			cum[i] = v
			t.ClockNodes = append(t.ClockNodes, ClockNodeRow{Parent: ct.Parent[i], CumVar: v})
		}
	} else {
		t.ClockNodes = []ClockNodeRow{{Parent: -1, CumVar: 0}}
	}
	for _, ex := range e.Con.Exceptions {
		froms := ex.From
		tos := ex.To
		if len(froms) == 0 {
			froms = []netlist.PinID{-1}
		}
		if len(tos) == 0 {
			tos = []netlist.PinID{-1}
		}
		for _, f := range froms {
			for _, to := range tos {
				t.Exceptions = append(t.Exceptions, ExceptionRow{
					SPPin: int32(f), EPPin: int32(to),
					Kind: uint8(ex.Kind), Cycles: int32(ex.Cycles),
				})
			}
		}
	}
	return t
}

// CompileExceptions rebuilds the O(1) exception lookup from the extracted
// rows, reusing the sdc compiler.
func (t *Tables) CompileExceptions() (*sdc.ExceptionTable, error) {
	con := sdc.New(sdc.Clock{Period: t.Period})
	for _, r := range t.Exceptions {
		ex := sdc.Exception{Kind: sdc.ExceptionKind(r.Kind), Cycles: int(r.Cycles)}
		if r.SPPin >= 0 {
			ex.From = []netlist.PinID{netlist.PinID(r.SPPin)}
		}
		if r.EPPin >= 0 {
			ex.To = []netlist.PinID{netlist.PinID(r.EPPin)}
		}
		con.Exceptions = append(con.Exceptions, ex)
	}
	return con.Compile()
}

// Validate performs the structural checks that make the tables safe to
// compile and propagate: every index in range; arc kinds 0 (cell) or 1 (net),
// the rows of the kernels' per-kind lane factors; one clock tree rooted at
// node 0, each parent before its child, so the CPPR walk always meets a
// common ancestor; and exceptions the sdc compiler accepts.
func (t *Tables) Validate() error {
	if t.NumPins < 0 {
		return fmt.Errorf("circuitops: negative pin count %d", t.NumPins)
	}
	for i, a := range t.Arcs {
		if a.From < 0 || int(a.From) >= t.NumPins || a.To < 0 || int(a.To) >= t.NumPins {
			return fmt.Errorf("circuitops: arc %d pins out of range", i)
		}
		if a.Kind > 1 {
			return fmt.Errorf("circuitops: arc %d kind %d is neither cell (0) nor net (1)", i, a.Kind)
		}
		if a.StdRise < 0 || a.StdFall < 0 {
			return fmt.Errorf("circuitops: arc %d negative sigma", i)
		}
	}
	for i, n := range t.ClockNodes {
		if i == 0 && n.Parent != -1 || i > 0 && (n.Parent < 0 || n.Parent >= int32(i)) {
			return fmt.Errorf("circuitops: clock node %d has parent %d, outside the one clock tree rooted at node 0", i, n.Parent)
		}
		if n.CumVar < 0 {
			return fmt.Errorf("circuitops: clock node %d negative variance", i)
		}
	}
	nClk := int32(len(t.ClockNodes))
	for i, s := range t.SPs {
		if s.Pin < 0 || int(s.Pin) >= t.NumPins || s.ClockNode < 0 || s.ClockNode >= nClk {
			return fmt.Errorf("circuitops: sp %d out of range", i)
		}
	}
	for i, e := range t.EPs {
		if e.Pin < 0 || int(e.Pin) >= t.NumPins || e.CaptureNode < 0 || e.CaptureNode >= nClk {
			return fmt.Errorf("circuitops: ep %d out of range", i)
		}
	}
	for i, x := range t.Exceptions {
		if x.SPPin < -1 || int(x.SPPin) >= t.NumPins || x.EPPin < -1 || int(x.EPPin) >= t.NumPins {
			return fmt.Errorf("circuitops: exception %d pins out of range", i)
		}
	}
	_, err := t.CompileExceptions()
	return err
}

// Write serializes the tables as a line-oriented TSV document.
func (t *Tables) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#insta-circuitops\tv1\n")
	fmt.Fprintf(bw, "design\t%s\n", t.Design)
	fmt.Fprintf(bw, "pins\t%d\n", t.NumPins)
	fmt.Fprintf(bw, "period\t%.17g\n", t.Period)
	fmt.Fprintf(bw, "nsigma\t%.17g\n", t.NSigma)
	fmt.Fprintf(bw, "arcs\t%d\n", len(t.Arcs))
	for _, a := range t.Arcs {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%d\t%d\t%.17g\t%.17g\t%.17g\t%.17g\n",
			a.From, a.To, a.Kind, a.Sense, a.Cell, a.Net,
			a.MeanRise, a.StdRise, a.MeanFall, a.StdFall)
	}
	fmt.Fprintf(bw, "sps\t%d\n", len(t.SPs))
	for _, s := range t.SPs {
		fmt.Fprintf(bw, "%d\t%d\t%.17g\t%.17g\n", s.Pin, s.ClockNode, s.Mean, s.Std)
	}
	fmt.Fprintf(bw, "eps\t%d\n", len(t.EPs))
	for _, e := range t.EPs {
		fmt.Fprintf(bw, "%d\t%d\t%.17g\t%.17g\t%.17g\t%.17g\n",
			e.Pin, e.CaptureNode, e.BaseReqRise, e.BaseReqFall, e.HoldReqRise, e.HoldReqFall)
	}
	fmt.Fprintf(bw, "clocknodes\t%d\n", len(t.ClockNodes))
	for _, n := range t.ClockNodes {
		fmt.Fprintf(bw, "%d\t%.17g\n", n.Parent, n.CumVar)
	}
	fmt.Fprintf(bw, "exceptions\t%d\n", len(t.Exceptions))
	for _, x := range t.Exceptions {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%d\n", x.SPPin, x.EPPin, x.Kind, x.Cycles)
	}
	return bw.Flush()
}

// Read parses a TSV document produced by Write.
func Read(r io.Reader) (*Tables, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	t := &Tables{}
	line := func() ([]string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, err
			}
			return nil, io.ErrUnexpectedEOF
		}
		return strings.Split(sc.Text(), "\t"), nil
	}
	hdr, err := line()
	if err != nil {
		return nil, err
	}
	if len(hdr) != 2 || hdr[0] != "#insta-circuitops" || hdr[1] != "v1" {
		return nil, fmt.Errorf("circuitops: bad header %v", hdr)
	}
	expectKey := func(key string) (string, error) {
		f, err := line()
		if err != nil {
			return "", err
		}
		if len(f) != 2 || f[0] != key {
			return "", fmt.Errorf("circuitops: expected %q line, got %v", key, f)
		}
		return f[1], nil
	}
	if t.Design, err = expectKey("design"); err != nil {
		return nil, err
	}
	s, err := expectKey("pins")
	if err != nil {
		return nil, err
	}
	if t.NumPins, err = strconv.Atoi(s); err != nil {
		return nil, fmt.Errorf("circuitops: pins: %w", err)
	}
	if s, err = expectKey("period"); err != nil {
		return nil, err
	}
	if t.Period, err = strconv.ParseFloat(s, 64); err != nil {
		return nil, fmt.Errorf("circuitops: period: %w", err)
	}
	if s, err = expectKey("nsigma"); err != nil {
		return nil, err
	}
	if t.NSigma, err = strconv.ParseFloat(s, 64); err != nil {
		return nil, fmt.Errorf("circuitops: nsigma: %w", err)
	}

	count := func(key string) (int, error) {
		s, err := expectKey(key)
		if err != nil {
			return 0, err
		}
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("circuitops: bad %s count %q", key, s)
		}
		return n, nil
	}
	// section reads a count line and that many rows, handing each row's
	// fields to row. The count is the document's claim, not an allocation
	// size: rows are appended as they arrive, so a short document claiming
	// 2^40 rows fails at its end instead of asking for terabytes first.
	section := func(key string, row func(f []string) error) error {
		n, err := count(key)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			f, err := line()
			if err != nil {
				return err
			}
			if err := row(f); err != nil {
				return fmt.Errorf("circuitops: %s row %d: %w", key, i, err)
			}
		}
		return nil
	}
	if err := section("arcs", func(f []string) error {
		var a ArcRow
		var k, sen int64
		err := parseAll(f,
			pInt32(&a.From), pInt32(&a.To), pInt64(&k), pInt64(&sen), pInt32(&a.Cell), pInt32(&a.Net),
			pFloat(&a.MeanRise), pFloat(&a.StdRise), pFloat(&a.MeanFall), pFloat(&a.StdFall))
		a.Kind, a.Sense = uint8(k), uint8(sen)
		t.Arcs = append(t.Arcs, a)
		return err
	}); err != nil {
		return nil, err
	}
	if err := section("sps", func(f []string) error {
		var s SPRow
		err := parseAll(f, pInt32(&s.Pin), pInt32(&s.ClockNode), pFloat(&s.Mean), pFloat(&s.Std))
		t.SPs = append(t.SPs, s)
		return err
	}); err != nil {
		return nil, err
	}
	if err := section("eps", func(f []string) error {
		var e EPRow
		err := parseAll(f, pInt32(&e.Pin), pInt32(&e.CaptureNode),
			pFloat(&e.BaseReqRise), pFloat(&e.BaseReqFall), pFloat(&e.HoldReqRise), pFloat(&e.HoldReqFall))
		t.EPs = append(t.EPs, e)
		return err
	}); err != nil {
		return nil, err
	}
	if err := section("clocknodes", func(f []string) error {
		var c ClockNodeRow
		err := parseAll(f, pInt32(&c.Parent), pFloat(&c.CumVar))
		t.ClockNodes = append(t.ClockNodes, c)
		return err
	}); err != nil {
		return nil, err
	}
	if err := section("exceptions", func(f []string) error {
		var x ExceptionRow
		var k int64
		err := parseAll(f, pInt32(&x.SPPin), pInt32(&x.EPPin), pInt64(&k), pInt32(&x.Cycles))
		x.Kind = uint8(k)
		t.Exceptions = append(t.Exceptions, x)
		return err
	}); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

type fieldParser func(string) error

func pInt32(dst *int32) fieldParser {
	return func(s string) error {
		v, err := strconv.ParseInt(s, 10, 32)
		*dst = int32(v)
		return err
	}
}

func pInt64(dst *int64) fieldParser {
	return func(s string) error {
		v, err := strconv.ParseInt(s, 10, 64)
		*dst = v
		return err
	}
}

func pFloat(dst *float64) fieldParser {
	return func(s string) error {
		v, err := strconv.ParseFloat(s, 64)
		*dst = v
		return err
	}
}

func parseAll(fields []string, parsers ...fieldParser) error {
	if len(fields) != len(parsers) {
		return fmt.Errorf("got %d fields, want %d", len(fields), len(parsers))
	}
	for i, p := range parsers {
		if err := p(fields[i]); err != nil {
			return fmt.Errorf("field %d %q: %w", i, fields[i], err)
		}
	}
	return nil
}
