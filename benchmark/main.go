// Command benchmark is the repository's one outside-in performance harness:
// four named closed-loop workloads, seven end-to-end metrics measured with
// tracing off, and a traced pass that times every layer from outside through
// its public functions. See README.md in this directory; BENCHMARK.json at
// the repository root is the contract a driver runs it by.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

type metricDef struct {
	name, unit string
	bound      float64 // end-to-end only: share of the median a metric may worsen
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with the harness tracer off.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"op_p50_ms", "ms", 0.25},
	{"op_p90_ms", "ms", 0.25},
	{"op_p99_ms", "ms", 0.25},
	{"ops_per_s", "1/s", 0.25},
	{"allocs_per_op", "1", 0.05},
	{"live_heap_mb", "MB", 0.10},
}

var workloadNames = []string{"full_k32", "corners_s8", "read_mix", "fleet_mix"}

// config is one run's sizing. The defaults are the benchmark; the smoke test
// shrinks every field to fit tier-1.
type config struct {
	seed   int64
	window time.Duration // timed window
	warm   time.Duration // discarded warm-up before it
	colds  int           // cold set-ups per run (kernel workloads); setup_s is the fastest
	boots  int           // warm boots per run (request workloads)
	// ECOs in one client's repeating schedule, each with a body of its own:
	// whole sessions and whole permutations of the sixteen ECO sizes.
	cycleECOs int
	probeN    int    // samples per small-op probe in the traced pass
	outDir    string // the only place a run writes

	full, corners, serve design
}

func defaultConfig() *config {
	return &config{
		seed: 1, window: 20 * time.Second, warm: time.Second,
		colds: 3, boots: 15, cycleECOs: 128, probeN: 150, outDir: filepath.Join("benchmark", "out"),
		full: designFull, corners: designCorners, serve: designServe,
	}
}

// report is one run's outcome in the shape the driver's contract fixes.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	samples  int        // latency samples behind the percentiles
	slices   int        // slices they were taken in
	p50Range [3]float64 // op_p50_ms over the slices as measured: best, median, worst — how quiet the host was
	clock    float64    // hostClock.factor of the run
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newWorkload(cfg *config, name string) (workload, time.Duration, error) {
	switch name {
	case "full_k32":
		return newFullK32(cfg)
	case "corners_s8":
		return newCornersS8(cfg)
	case "read_mix", "fleet_mix":
		return newRequestWorkload(cfg, name)
	}
	return nil, 0, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// warmUp runs untimed slices, at least one, for d and returns how many ops
// failed in them.
func warmUp(w workload, d time.Duration) (failed int) {
	for end := time.Now().Add(d); ; {
		_, f := w.slice(nil)
		failed += f
		if !time.Now().Before(end) {
			return failed
		}
	}
}

// measureEndToEnd runs one workload with tracing off and reports the
// end-to-end metrics. The timed window is a run of slices, each the same
// ops, so slices differ only by what the host did to them; every time metric
// is computed per slice and the best slice is reported (see quiet).
func measureEndToEnd(cfg *config, name string) (*report, error) {
	var clock hostClock
	clock.sample()
	w, setUp, err := newWorkload(cfg, name)
	if err != nil {
		return nil, err
	}
	defer w.close()
	clock.sample()
	failed := warmUp(w, cfg.warm)
	runtime.GC()

	r := &report{Metrics: map[string]metricValue{}}
	var p50, p90, p99, period []float64 // period: seconds per op, the inverse of the rate
	m0 := mallocs()
	for end := time.Now().Add(cfg.window); len(p50) == 0 || time.Now().Before(end); {
		clock.sample()
		t0 := time.Now()
		lat, f := w.slice(nil)
		elapsed := time.Since(t0)
		failed += f
		r.Attempted += len(lat) + f
		r.samples += len(lat)
		if len(lat) == 0 {
			return nil, fmt.Errorf("%s: no op completed correctly in a slice (%d failed)", name, failed)
		}
		sortDurations(lat)
		p50 = append(p50, ms(quantile(lat, 0.50)))
		p90 = append(p90, ms(quantile(lat, 0.90)))
		p99 = append(p99, ms(quantile(lat, 0.99)))
		period = append(period, elapsed.Seconds()/float64(len(lat)))
	}
	allocs := float64(mallocs()-m0) / float64(r.Attempted)
	runtime.GC()
	runtime.GC() // twice: the first moves sync.Pool contents to their victim caches, the second frees them
	var idle runtime.MemStats
	runtime.ReadMemStats(&idle)

	r.slices = len(p50)
	slices.Sort(p50)
	r.p50Range = [3]float64{p50[0], p50[len(p50)/2], p50[len(p50)-1]}
	r.Correct, r.Failed = failed == 0, failed
	r.clock = clock.factor()
	values := []float64{
		setUp.Seconds() / r.clock, quiet(p50) / r.clock, quiet(p90) / r.clock, quiet(p99) / r.clock,
		r.clock / quiet(period), allocs, float64(idle.HeapAlloc) / 1e6,
	}
	for i, d := range endToEnd {
		r.Metrics[d.name] = metricValue{values[i], d.unit}
	}
	return r, nil
}

// quiet is the estimator behind every time metric: the best of repeated
// measurements of the same work. On a shared host interference only ever
// adds time, in bursts of seconds and phases of minutes, so the fast end of
// the sample is what the program does and the rest is what its neighbours
// did: over runs of this benchmark the median slice moved by 10-25 % from run
// to run where the best slice held to a few percent.
func quiet(v []float64) float64 { return slices.Min(v) }

func quietDuration(v []time.Duration) time.Duration { return slices.Min(v) }

// hostClock measures how fast the host's cores are clocked during a run, with
// a register-only loop whose time depends on nothing else. This VM's cores
// run at their base clock in some minutes and about 17 % faster in others
// (the loop takes 2.12 ms or 1.80 ms, and stays there for minutes), and every
// workload but the DRAM-bound full_k32 follows: medians of ten runs taken half
// an hour apart differed by 12-16 % on the same code. So the end-to-end times
// are reported at the nominal clock: as measured, divided by factor.
type hostClock struct {
	best time.Duration // the fastest calibration loop of the run
}

const (
	clockIters   = 1_000_000
	clockNominal = 2120 * time.Microsecond // the loop at this host's base clock
)

var clockSink uint64 // keeps the loop's result live

// sample times the loop three times and keeps the fastest seen so far: like
// the workloads' slices, the loop can only be slowed by interference, so its
// floor over a run's hundred samples is the clock.
func (c *hostClock) sample() {
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < clockIters; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		clockSink += x
		if d := time.Since(t0); c.best == 0 || d < c.best {
			c.best = d
		}
	}
}

// factor is how much slower than nominal the host's clock ran: above 1 on a
// slower clock.
func (c *hostClock) factor() float64 { return float64(c.best) / float64(clockNominal) }

// print writes every metric by name with its unit, then the contract's JSON
// object as the last line.
func (r *report) print(name string, defs []metricDef) {
	fmt.Printf("workload %s: ops %d, failed %d, latency samples %d, correct %v\n",
		name, r.Attempted, r.Failed, r.samples, r.Correct)
	if r.slices > 0 {
		fmt.Printf("  %d slices, op_p50_ms over them as measured: best %.6g, median %.6g, worst %.6g\n",
			r.slices, r.p50Range[0], r.p50Range[1], r.p50Range[2])
		fmt.Printf("  host clock factor %.4f: times below are as measured ÷ it, ops_per_s × it\n", r.clock)
	}
	for _, d := range defs {
		fmt.Printf("  %-36s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	line, _ := json.Marshal(r) // plain numbers and strings always marshal
	fmt.Println(string(line))
}

// aa runs the selected set of workloads n times over and holds every
// end-to-end metric's max relative spread against its bound.
func aa(cfg *config, names []string, n int) error {
	runs := map[string][]*report{}
	for i := 0; i < n; i++ {
		for _, name := range names {
			r, err := measureEndToEnd(cfg, name)
			if err != nil {
				return err
			}
			if !r.Correct {
				return fmt.Errorf("%s: run %d had %d failed ops", name, i, r.Failed)
			}
			runs[name] = append(runs[name], r)
		}
	}
	exceeded := 0
	for _, name := range names {
		fmt.Printf("A/A %s over %d runs (seed %d)\n", name, n, cfg.seed)
		for _, d := range endToEnd {
			vals := make([]float64, n)
			for i, r := range runs[name] {
				vals[i] = r.Metrics[d.name].Value
			}
			slices.Sort(vals)
			spread := (vals[n-1] - vals[0]) / vals[n/2]
			verdict := "ok"
			if spread > d.bound {
				verdict = "EXCEEDS"
				exceeded++
			}
			fmt.Printf("  %-16s median %12.6g %-4s spread %6.2f%%  bound %5.1f%%  %s\n",
				d.name, vals[n/2], d.unit, 100*spread, 100*d.bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric spreads exceed their bounds", exceeded)
	}
	return nil
}

func run() error {
	cfg := defaultConfig()
	var (
		only    = flag.String("workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all")
		seconds = flag.Float64("seconds", cfg.window.Seconds(), "length of the timed window")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead")
		repeats = flag.Int("aa", 0, "A/A mode: run the set this many times and check each metric's spread against its bound")
	)
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "traffic seed: the order of the sessions in the client's cycle")
	flag.StringVar(&cfg.outDir, "out", cfg.outDir, "directory for trace files and the scratch snapshot cache")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || math.IsNaN(*seconds) {
		return fmt.Errorf("usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-aa n]")
	}
	cfg.window = time.Duration(*seconds * float64(time.Second))
	names := workloadNames
	if *only != "all" {
		names = []string{*only}
	}
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if *repeats > 0 {
		return aa(cfg, names, *repeats)
	}
	wrong := 0
	for _, name := range names {
		var (
			r    *report
			defs = endToEnd
			err  error
		)
		if *trace != 0 {
			defs = perLayer
			r, err = measureLayers(cfg, name)
		} else {
			r, err = measureEndToEnd(cfg, name)
		}
		if err != nil {
			return err
		}
		r.print(name, defs)
		if !r.Correct {
			wrong++
		}
	}
	if wrong > 0 {
		return fmt.Errorf("%d workloads returned wrong answers or failed ops", wrong)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
