package libertyio

import (
	"fmt"
	"io"
	"strings"
	"unicode"

	"insta/internal/liberty"
	"insta/internal/num"
)

// group is one parsed Liberty group: `name (args) { attrs... subgroups... }`.
type group struct {
	name string
	args []string
	// attrs holds simple (`key : value;`) and complex (`key (v1, v2);`)
	// attributes; complex attribute values keep their argument list.
	attrs map[string][]string
	subs  []*group
}

func (g *group) attr(key string) string {
	if vs, ok := g.attrs[key]; ok && len(vs) > 0 {
		return vs[0]
	}
	return ""
}

func (g *group) subsNamed(name string) []*group {
	var out []*group
	for _, s := range g.subs {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// Read parses Liberty text written by Write back into a Library. Footprint
// sizing ladders are reconstructed by grouping on cell_footprint and
// ordering by area.
func Read(r io.Reader) (*liberty.Library, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	toks, err := tokenize(string(data))
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	root, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	if root.name != "library" || len(root.args) != 1 {
		return nil, fmt.Errorf("libertyio: top-level group is %q, want library(name)", root.name)
	}

	var cells []*liberty.Cell
	for _, cg := range root.subsNamed("cell") {
		c, err := parseCell(cg)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("libertyio: library %q has no cells", root.args[0])
	}
	lib := liberty.Rebuild(root.args[0], cells)
	if err := lib.Validate(); err != nil {
		return nil, fmt.Errorf("libertyio: parsed library invalid: %w", err)
	}
	return lib, nil
}

func parseCell(cg *group) (*liberty.Cell, error) {
	if len(cg.args) != 1 {
		return nil, fmt.Errorf("libertyio: cell group without name")
	}
	c := &liberty.Cell{
		Name:      cg.args[0],
		Footprint: strings.Trim(cg.attr("cell_footprint"), `"`),
		PinCap:    map[string]float64{},
	}
	if c.Footprint == "" {
		return nil, fmt.Errorf("libertyio: cell %s lacks cell_footprint", c.Name)
	}
	var err error
	if c.Area, err = parseFloatAttr(cg, "area"); err != nil {
		return nil, fmt.Errorf("libertyio: cell %s: %w", c.Name, err)
	}
	if cg.attr("cell_leakage_power") != "" { // absent reads 0
		if c.Leakage, err = parseFloatAttr(cg, "cell_leakage_power"); err != nil {
			return nil, fmt.Errorf("libertyio: cell %s: %w", c.Name, err)
		}
	}

	for _, ff := range cg.subsNamed("ff") {
		c.Seq = true
		c.ClockPin = strings.Trim(ff.attr("clocked_on"), `"`)
		c.DataPin = strings.Trim(ff.attr("next_state"), `"`)
	}

	for _, pg := range cg.subsNamed("pin") {
		if len(pg.args) != 1 {
			return nil, fmt.Errorf("libertyio: cell %s: pin group without name", c.Name)
		}
		pin := pg.args[0]
		switch pg.attr("direction") {
		case "input":
			c.Inputs = append(c.Inputs, pin)
			cap, err := parseFloatAttr(pg, "capacitance")
			if err == nil && cap < 0 {
				err = fmt.Errorf("capacitance %v is negative", cap)
			}
			if err != nil {
				return nil, fmt.Errorf("libertyio: cell %s pin %s: %w", c.Name, pin, err)
			}
			c.PinCap[pin] = cap
			for _, tg := range pg.subsNamed("timing") {
				if err := parseConstraint(c, tg); err != nil {
					return nil, fmt.Errorf("libertyio: cell %s pin %s: %w", c.Name, pin, err)
				}
			}
		case "output":
			c.Outputs = append(c.Outputs, pin)
			c.OutPin = pin
			for _, tg := range pg.subsNamed("timing") {
				arc, err := parseArc(pin, tg)
				if err != nil {
					return nil, fmt.Errorf("libertyio: cell %s pin %s: %w", c.Name, pin, err)
				}
				c.Arcs = append(c.Arcs, *arc)
			}
		default:
			return nil, fmt.Errorf("libertyio: cell %s pin %s: bad direction %q", c.Name, pin, pg.attr("direction"))
		}
	}
	if !c.Seq {
		c.OutPin = ""
	}
	return c, nil
}

func parseConstraint(c *liberty.Cell, tg *group) error {
	tt := tg.attr("timing_type")
	if tt != "setup_rising" && tt != "hold_rising" {
		return fmt.Errorf("unsupported timing_type %q on input pin", tt)
	}
	rise, err := parseScalarTable(tg, "rise_constraint")
	if err != nil {
		return err
	}
	fall, err := parseScalarTable(tg, "fall_constraint")
	if err != nil {
		return err
	}
	if tt == "setup_rising" {
		c.Setup = [2]float64{rise, fall}
	} else {
		c.Hold = [2]float64{rise, fall}
	}
	return nil
}

func parseScalarTable(tg *group, name string) (float64, error) {
	gs := tg.subsNamed(name)
	if len(gs) != 1 {
		return 0, fmt.Errorf("expected one %s group", name)
	}
	vals, ok := gs[0].attrs["values"]
	if !ok || len(vals) != 1 {
		return 0, fmt.Errorf("%s without scalar values", name)
	}
	v, err := num.ParseFinite(strings.Trim(vals[0], `" `))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return v, nil
}

func parseArc(out string, tg *group) (*liberty.Arc, error) {
	a := &liberty.Arc{
		From: strings.Trim(tg.attr("related_pin"), `"`),
		To:   out,
	}
	switch tg.attr("timing_sense") {
	case "positive_unate":
		a.Sense = liberty.PositiveUnate
	case "negative_unate":
		a.Sense = liberty.NegativeUnate
	case "non_unate":
		a.Sense = liberty.NonUnate
	default:
		return nil, fmt.Errorf("bad timing_sense %q", tg.attr("timing_sense"))
	}
	specs := []struct {
		group string
		dst   *liberty.Table
	}{
		{"cell_rise", &a.Delay[liberty.Rise]},
		{"rise_transition", &a.OutSlew[liberty.Rise]},
		{"ocv_sigma_cell_rise", &a.Sigma[liberty.Rise]},
		{"cell_fall", &a.Delay[liberty.Fall]},
		{"fall_transition", &a.OutSlew[liberty.Fall]},
		{"ocv_sigma_cell_fall", &a.Sigma[liberty.Fall]},
	}
	for _, sp := range specs {
		gs := tg.subsNamed(sp.group)
		if len(gs) != 1 {
			return nil, fmt.Errorf("expected one %s group", sp.group)
		}
		tb, err := parseTable(gs[0])
		if err == nil && strings.HasPrefix(sp.group, "ocv_sigma") {
			err = nonNegative(tb)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.group, err)
		}
		*sp.dst = *tb
	}
	return a, nil
}

func parseTable(g *group) (*liberty.Table, error) {
	t := &liberty.Table{}
	var err error
	if t.Slew, err = parseFloatList(g.attrs["index_1"]); err != nil {
		return nil, fmt.Errorf("index_1: %w", err)
	}
	if t.Load, err = parseFloatList(g.attrs["index_2"]); err != nil {
		return nil, fmt.Errorf("index_2: %w", err)
	}
	rows, ok := g.attrs["values"]
	if !ok {
		return nil, fmt.Errorf("missing values")
	}
	for _, row := range rows {
		vals, err := parseFloatList([]string{row})
		if err != nil {
			return nil, fmt.Errorf("values row: %w", err)
		}
		t.Val = append(t.Val, vals)
	}
	return t, nil
}

func parseFloatList(raw []string) ([]float64, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("missing")
	}
	var out []float64
	for _, chunk := range raw {
		chunk = strings.Trim(chunk, `" `)
		for _, f := range strings.Split(chunk, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			v, err := num.ParseFinite(f)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	return out, nil
}

func parseFloatAttr(g *group, key string) (float64, error) {
	s := g.attr(key)
	if s == "" {
		return 0, fmt.Errorf("missing attribute %s", key)
	}
	v, err := num.ParseFinite(s)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", key, err)
	}
	return v, nil
}

// nonNegative rejects a table holding a negative value: no σ can be one.
func nonNegative(t *liberty.Table) error {
	for i, row := range t.Val {
		for j, v := range row {
			if v < 0 {
				return fmt.Errorf("values row %d col %d: %v is negative", i, j, v)
			}
		}
	}
	return nil
}

// --- tokenizer / parser ---

type token struct {
	kind byte // 'w' word, 's' string, or one of (){};:,
	text string
}

func tokenize(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		ch := src[i]
		switch {
		case ch == '\\' && i+1 < len(src) && src[i+1] == '\n':
			i += 2 // line continuation
		case unicode.IsSpace(rune(ch)):
			i++
		case ch == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case ch == '/' && i+1 < len(src) && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("libertyio: unterminated block comment")
			}
			i += end + 4
		case ch == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("libertyio: unterminated string")
			}
			toks = append(toks, token{'s', src[i : j+1]})
			i = j + 1
		case strings.IndexByte("(){};:,", ch) >= 0:
			toks = append(toks, token{ch, string(ch)})
			i++
		default:
			j := i
			for j < len(src) && !unicode.IsSpace(rune(src[j])) && strings.IndexByte("(){};:,\"", src[j]) < 0 {
				j++
			}
			toks = append(toks, token{'w', src[i:j]})
			i = j
		}
	}
	return toks, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() *token {
	if p.pos < len(p.toks) {
		return &p.toks[p.pos]
	}
	return nil
}

func (p *parser) next() *token {
	t := p.peek()
	if t != nil {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind byte) (*token, error) {
	t := p.next()
	if t == nil || t.kind != kind {
		return nil, fmt.Errorf("libertyio: expected %q, got %v", string(kind), t)
	}
	return t, nil
}

// parseGroup parses `name (args...) { body }`.
func (p *parser) parseGroup() (*group, error) {
	nameTok, err := p.expect('w')
	if err != nil {
		return nil, err
	}
	g := &group{name: nameTok.text, attrs: map[string][]string{}}
	if _, err := p.expect('('); err != nil {
		return nil, err
	}
	for {
		t := p.next()
		if t == nil {
			return nil, fmt.Errorf("libertyio: unterminated group args")
		}
		if t.kind == ')' {
			break
		}
		if t.kind == ',' {
			continue
		}
		g.args = append(g.args, t.text)
	}
	if _, err := p.expect('{'); err != nil {
		return nil, err
	}
	if err := p.parseBodyInto(g); err != nil {
		return nil, err
	}
	return g, nil
}

// parseBodyInto parses a group body (after '{') into g, sharing the logic of
// parseGroup's loop.
func (p *parser) parseBodyInto(g *group) error {
	for {
		t := p.peek()
		if t == nil {
			return fmt.Errorf("libertyio: unterminated group %s", g.name)
		}
		if t.kind == '}' {
			p.next()
			return nil
		}
		if t.kind != 'w' {
			return fmt.Errorf("libertyio: unexpected token %q in group %s", t.text, g.name)
		}
		key := p.next().text
		sep := p.peek()
		switch {
		case sep != nil && sep.kind == ':':
			p.next()
			var vals []string
			for {
				v := p.next()
				if v == nil {
					return fmt.Errorf("libertyio: unterminated attribute %s", key)
				}
				if v.kind == ';' {
					break
				}
				vals = append(vals, v.text)
			}
			// A simple attribute's value is one token: Write emits no other,
			// and a second one would not survive its quoting.
			if len(vals) > 1 {
				return fmt.Errorf("libertyio: attribute %s has %d value tokens, want one", key, len(vals))
			}
			g.attrs[key] = vals
		case sep != nil && sep.kind == '(':
			p.next()
			var args []string
			for {
				v := p.next()
				if v == nil {
					return fmt.Errorf("libertyio: unterminated %s(...)", key)
				}
				if v.kind == ')' {
					break
				}
				if v.kind == ',' {
					continue
				}
				args = append(args, strings.Trim(v.text, `"`))
			}
			after := p.peek()
			if after != nil && after.kind == '{' {
				p.next()
				sub := &group{name: key, args: args, attrs: map[string][]string{}}
				if err := p.parseBodyInto(sub); err != nil {
					return err
				}
				g.subs = append(g.subs, sub)
				continue
			}
			if after != nil && after.kind == ';' {
				p.next()
			}
			g.attrs[key] = append(g.attrs[key], args...)
		default:
			return fmt.Errorf("libertyio: stray token after %q", key)
		}
	}
}
