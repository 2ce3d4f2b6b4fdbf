package refsta

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"insta/internal/liberty"
)

// WorstEndpoints returns up to n endpoint indexes ordered by ascending
// slack (worst first), skipping untimed endpoints.
func (e *Engine) WorstEndpoints(n int) []int32 {
	e.arrivals()
	type item struct {
		i int32
		s float64
	}
	items := make([]item, 0, len(e.epSlack))
	for i, s := range e.epSlack {
		if math.IsInf(s, 0) {
			continue
		}
		items = append(items, item{int32(i), s})
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].s != items[b].s {
			return items[a].s < items[b].s
		}
		return items[a].i < items[b].i
	})
	if n > len(items) {
		n = len(items)
	}
	out := make([]int32, n)
	for i := 0; i < n; i++ {
		out[i] = items[i].i
	}
	return out
}

// ReportTiming writes a report_timing-style summary of the n worst
// endpoints: the full data path of each, with per-stage incremental delay
// and cumulative arrival corners.
func (e *Engine) ReportTiming(w io.Writer, n int) {
	e.arrivals()
	fmt.Fprintf(w, "report_timing: %d endpoints, WNS %.2f ps, TNS %.2f ps, %d violating\n",
		len(e.EPs), e.WNS(), e.TNS(), e.NumViolations())
	for rank, ep := range e.WorstEndpoints(n) {
		fmt.Fprintf(w, "\nPath %d:\n", rank+1)
		e.FormatPath(w, ep)
	}
}

// FormatPath writes endpoint index ep's worst path, startpoint first.
func (e *Engine) FormatPath(w io.Writer, ep int32) {
	e.arrivals()
	steps := e.WorstPath(ep)
	epPin := e.EPs[ep]
	slack := e.epSlack[ep]
	fmt.Fprintf(w, "  Endpoint:   %s (slack %.2f ps)\n", e.D.Pins[epPin].Name, slack)
	if len(steps) == 0 {
		fmt.Fprintf(w, "  (untimed)\n")
		return
	}
	spPin := e.Arcs[steps[len(steps)-1].ArcID].From
	fmt.Fprintf(w, "  Startpoint: %s\n", e.D.Pins[spPin].Name)
	fmt.Fprintf(w, "  %-36s %6s %10s %12s\n", "pin", "edge", "incr(ps)", "arrival(ps)")

	// Walk startpoint-first.
	_, _, sp := e.setupSlack(ep)
	for i := len(steps) - 1; i >= 0; i-- {
		st := steps[i]
		a := &e.Arcs[st.ArcID]
		incr := a.Delay[st.RF].Corner(e.Cfg.NSigma)
		arrStr := "-"
		if d, ok := lookupSP(e.arr[st.RF][st.Pin], sp); ok {
			arrStr = fmt.Sprintf("%.2f", d.Corner(e.Cfg.NSigma))
		}
		kind := "net"
		if a.Kind == CellArc {
			kind = "cell"
		}
		fmt.Fprintf(w, "  %-36s %6s %10.2f %12s  (%s)\n",
			e.D.Pins[st.Pin].Name, liberty.RFName(st.RF), incr, arrStr, kind)
	}
}

// SlackHistogram writes a text histogram of the timed endpoint slacks in
// `bins` equal-width buckets, the quick design-health view interactive
// timing shells print.
func (e *Engine) SlackHistogram(w io.Writer, bins int) {
	e.arrivals()
	var vals []float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range e.epSlack {
		if math.IsInf(s, 0) {
			continue
		}
		vals = append(vals, s)
		lo = math.Min(lo, s)
		hi = math.Max(hi, s)
	}
	if len(vals) == 0 || bins < 1 {
		fmt.Fprintf(w, "slack histogram: no timed endpoints\n")
		return
	}
	if hi == lo {
		hi = lo + 1
	}
	counts := make([]int, bins)
	width := (hi - lo) / float64(bins)
	for _, s := range vals {
		b := int((s - lo) / width)
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	fmt.Fprintf(w, "slack histogram (%d endpoints, %.1f .. %.1f ps):\n", len(vals), lo, hi)
	for b := 0; b < bins; b++ {
		barLen := 0
		if max > 0 {
			barLen = counts[b] * 50 / max
		}
		marker := " "
		if lo+float64(b)*width < 0 && lo+float64(b+1)*width >= 0 {
			marker = "0"
		}
		fmt.Fprintf(w, "  %9.1f %s|%-50s| %d\n",
			lo+float64(b)*width, marker, strings.Repeat("#", barLen), counts[b])
	}
}
