// Package exact is an endpoint timing oracle that shares none of the
// engine's Top-K machinery. It walks endpoints' fan-in cones in level order
// and keeps, per pin and transition, every startpoint that reaches the pin
// with the arrival of its most critical path — an unbounded list where
// the engine keeps a capacity-limited queue, stored, replayed or not kept at
// all. From core it reads only the compiled State's slabs, its CPPR credit
// and its exception table; rows, capacities, derived and dead pins, the
// startpoint index and packed tails are the engine's business, and this
// package is what holds them to account.
//
// The arithmetic is the paper's shift: an arrival (m, σ) through an arc of
// delay (am, as) becomes (m + am, √(σ² + as²)), the transition swapped by a
// negative-unate arc. Where a startpoint arrives twice the larger corner
// stays, the entry already held winning a tie, with a pin's parents taken in
// fan-in CSR order — which is the engine's merge. So wherever the engine's
// queues are deep enough to hold every startpoint (block presets from K = 8
// on, Fig. 6) the two agree bit for bit, and where they are not, the oracle's
// slack is never the larger: truncation can only drop an arrival.
package exact

import (
	"cmp"
	"math"
	"slices"

	"insta/internal/core"
	"insta/internal/liberty"
	"insta/internal/netlist"
	"insta/internal/num"
	"insta/internal/sdc"
)

// Delay returns arc's delay for output transition rf as the walked lane sees
// it: Engine.ArcDelay or Overlay.ArcDelay for a unit lane, times the lane's
// factors for the arc's kind for a scaled one.
type Delay func(arc int32, rf int) num.Dist

// Result is one endpoint's exact timing.
type Result struct {
	Setup float64 // setup slack, +Inf when no startpoint is timed to the endpoint
	SP    int32   // the startpoint (State.SpPin index) behind Setup, -1 when untimed
	RF    int     // the data transition behind Setup
	Hold  float64 // hold slack, +Inf when unchecked
}

// entry is one startpoint's arrival at a pin.
type entry struct {
	sp        int32
	mean, std float64
}

// Walker walks endpoint cones over one compiled state. Its scratch is reused
// across walks, so a Walker is not safe for concurrent use.
type Walker struct {
	st  *core.State
	exc *sdc.ExceptionTable
	// at[p] is 1 + pin p's position in the cone being walked, 0 outside it;
	// uses[i] counts the cone's fan-in arcs from cone pin i not yet read.
	at   []int32
	cone []int32
	uses []int32
	// lists[i][sign][rf] is cone pin i's arrivals sorted by startpoint:
	// sign 0 late (the larger corner kept), 1 early (the smaller). A pin's
	// lists are dropped into free, for reuse, once its last reader is built.
	lists [][2][2][]entry
	free  [][]entry
}

// New returns a walker over st, whose exception rows it compiles.
func New(st *core.State) (*Walker, error) {
	exc, err := st.CompileExceptions()
	if err != nil {
		return nil, err
	}
	return &Walker{st: st, exc: exc, at: make([]int32, st.NumPins)}, nil
}

// Walk walks the union of endpoints eps' fan-in cones (State.EpPin indices)
// under delay, once, and returns each endpoint's exact timing, in eps' order,
// with how many (pin, transition, startpoint) arrivals the walk built, late
// and early. A pin's arrivals are dropped once every pin that reads them is
// built, so the walk holds a frontier of the union, not all of it.
func (w *Walker) Walk(delay Delay, eps ...int32) ([]Result, int) {
	st := w.st
	w.collect(eps)
	signs := 1 // endpoints with no hold check need no early arrivals
	for _, ep := range eps {
		if !math.IsInf(st.EpHold[0][ep], 1) || !math.IsInf(st.EpHold[1][ep], 1) {
			signs = 2
		}
	}
	res, entries := make([]Result, len(eps)), 0
	for i, p := range w.cone {
		l := &w.lists[i]
		for sign := 0; sign < signs; sign++ {
			for rf := 0; rf < 2; rf++ {
				l[sign][rf] = w.arrive(delay, p, sign, rf, w.take())
				entries += len(l[sign][rf])
			}
		}
		for j, ep := range eps {
			if ep != st.EpOfPin[p] {
				continue
			}
			res[j].Setup, res[j].SP, res[j].RF = w.setup(ep, l[0])
			res[j].Hold = math.Inf(1)
			if signs == 2 {
				res[j].Hold = w.hold(ep, l[1])
			}
		}
		if st.SpOfPin[p] < 0 {
			for _, from := range st.FaninFrom[st.FaninStart[p]:st.FaninStart[p+1]] {
				w.read(w.at[from] - 1)
			}
		}
		if w.uses[i] == 0 {
			w.drop(i)
		}
	}
	for _, p := range w.cone {
		w.at[p] = 0
	}
	return res, entries
}

// collect gathers the fan-in cones of eps' pins — stopping at startpoints,
// whose arrival is their launch whatever drives them — into w.cone in level
// order, indexes it in w.at and counts its readers in w.uses.
func (w *Walker) collect(eps []int32) {
	st := w.st
	w.cone = w.cone[:0]
	for _, ep := range eps {
		if p := st.EpPin[ep]; w.at[p] == 0 {
			w.at[p] = -1
			w.cone = append(w.cone, p)
		}
	}
	for i := 0; i < len(w.cone); i++ {
		q := w.cone[i]
		if st.SpOfPin[q] >= 0 {
			continue
		}
		for _, from := range st.FaninFrom[st.FaninStart[q]:st.FaninStart[q+1]] {
			if w.at[from] == 0 {
				w.at[from] = -1
				w.cone = append(w.cone, from)
			}
		}
	}
	slices.SortStableFunc(w.cone, func(a, b int32) int { return int(st.LvLevel[a] - st.LvLevel[b]) })
	for i, q := range w.cone {
		w.at[q] = int32(i + 1)
	}
	w.uses = append(w.uses[:0], make([]int32, len(w.cone))...)
	for _, q := range w.cone {
		if st.SpOfPin[q] < 0 {
			for _, from := range st.FaninFrom[st.FaninStart[q]:st.FaninStart[q+1]] {
				w.uses[w.at[from]-1]++
			}
		}
	}
	for len(w.lists) < len(w.cone) {
		w.lists = append(w.lists, [2][2][]entry{})
	}
}

// read counts one read of cone pin i's arrivals, dropping them after the last.
func (w *Walker) read(i int32) {
	if w.uses[i]--; w.uses[i] == 0 {
		w.drop(int(i))
	}
}

// drop hands cone pin i's lists to w.free.
func (w *Walker) drop(i int) {
	for sign := range w.lists[i] {
		for rf, l := range w.lists[i][sign] {
			if l != nil {
				w.free = append(w.free, l[:0])
				w.lists[i][sign][rf] = nil
			}
		}
	}
}

// take returns an empty list, on dropped storage when there is some.
func (w *Walker) take() []entry {
	if n := len(w.free); n > 0 {
		l := w.free[n-1]
		w.free = w.free[:n-1]
		return l
	}
	return nil
}

// arrive builds pin p's arrivals for transition rf, late (sign 0) or early
// (sign 1), into dst from its parents' in the cone.
func (w *Walker) arrive(delay Delay, p int32, sign, rf int, dst []entry) []entry {
	st := w.st
	if sp := st.SpOfPin[p]; sp >= 0 {
		return append(dst, entry{sp, st.SpMean[sp], st.SpStd[sp]})
	}
	for pos := st.FaninStart[p]; pos < st.FaninStart[p+1]; pos++ {
		d := delay(st.FaninArc[pos], rf)
		par := &w.lists[w.at[st.FaninFrom[pos]]-1][sign]
		inRFs, n := liberty.Unate(st.FaninSense[pos]).InRFs(rf)
		for _, in := range inRFs[:n] {
			dst = w.fold(dst, par[in], d, sign)
		}
	}
	return dst
}

// fold merges src, every arrival shifted by d, into acc — both sorted by
// startpoint — keeping per startpoint the more critical arrival, acc's on a
// tie, and returns the result; acc's storage is dropped into w.free.
func (w *Walker) fold(acc, src []entry, d num.Dist, sign int) []entry {
	if len(src) == 0 {
		return acc
	}
	// The corner is kept as the engine orders its queues: late m + nσ·σ,
	// early −(m − nσ·σ), so that a tie is a tie there too.
	sgn, ns := 1.0, w.st.NSigma
	if sign == 1 {
		sgn, ns = -1, -ns
	}
	out := w.take()
	if cap(out) < len(acc)+len(src) {
		out = make([]entry, 0, 2*(len(acc)+len(src)))
	}
	if acc != nil {
		w.free = append(w.free, acc[:0])
	}
	i := 0
	for _, e := range src {
		e.mean, e.std = e.mean+d.Mean, math.Sqrt(e.std*e.std+d.Std*d.Std)
		for i < len(acc) && acc[i].sp < e.sp {
			out = append(out, acc[i])
			i++
		}
		if i < len(acc) && acc[i].sp == e.sp {
			if sgn*(e.mean+ns*e.std) <= sgn*(acc[i].mean+ns*acc[i].std) {
				e = acc[i]
			}
			i++
		}
		out = append(out, e)
	}
	return append(out, acc[i:]...)
}

// setup is endpoint ep's setup slack over its late arrivals, each startpoint
// paired with its own required time — base requirement, multicycle periods
// and CPPR credit — and false paths skipped: the least slack, with the
// startpoint and transition behind it. Per transition, arrivals are visited
// from the latest corner down, as the engine's queue holds them.
func (w *Walker) setup(ep int32, late [2][]entry) (slack float64, sp int32, rf int) {
	st := w.st
	p := st.EpPin[ep]
	slack, sp = math.Inf(1), -1
	for r := 0; r < 2; r++ {
		byCorner := slices.Clone(late[r])
		slices.SortStableFunc(byCorner, func(a, b entry) int {
			return cmp.Compare(b.mean+st.NSigma*b.std, a.mean+st.NSigma*a.std)
		})
		for _, e := range byCorner {
			adj := w.exc.Lookup(netlist.PinID(st.SpPin[e.sp]), netlist.PinID(p))
			if adj.False {
				continue
			}
			req := st.EpBase[r][ep] + float64(adj.CycleCount()-1)*st.Period + st.Credit(st.SpNode[e.sp], st.EpNode[ep])
			if sl := req - (e.mean + st.NSigma*e.std); sl < slack {
				slack, sp, rf = sl, e.sp, r
			}
		}
	}
	return slack, sp, rf
}

// hold is endpoint ep's hold slack over its early arrivals: early corner
// minus the hold requirement plus CPPR credit, the least over startpoints and
// transitions, false paths skipped.
func (w *Walker) hold(ep int32, early [2][]entry) float64 {
	st := w.st
	p := st.EpPin[ep]
	best := math.Inf(1)
	for r := 0; r < 2; r++ {
		req := st.EpHold[r][ep]
		if math.IsInf(req, 1) {
			continue
		}
		for _, e := range early[r] {
			if w.exc.Lookup(netlist.PinID(st.SpPin[e.sp]), netlist.PinID(p)).False {
				continue
			}
			if sl := e.mean - st.NSigma*e.std - req + st.Credit(st.SpNode[e.sp], st.EpNode[ep]); sl < best {
				best = sl
			}
		}
	}
	return best
}
