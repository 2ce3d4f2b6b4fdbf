// Package cmdutil holds the small pieces every cmd tool shares: the
// scheduler flag (-workers), the multi-corner flag (-corners),
// preset-name resolution across the three benchmark suites, and
// loading/generating a design directory in the repo's file formats
// (design.lib/.v/.sdc/.spef).
package cmdutil

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/liberty"
	"insta/internal/libertyio"
	"insta/internal/obs"
	"insta/internal/sdcio"
	"insta/internal/spef"
	"insta/internal/vlog"
)

// Sched carries the scheduler-pool flag after flag.Parse.
type Sched struct {
	Workers int
}

// SchedFlags registers -workers on the default flag set. Call before
// flag.Parse; read the field after.
func SchedFlags() *Sched { return schedFlags(flag.CommandLine) }

func schedFlags(fs *flag.FlagSet) *Sched {
	s := &Sched{}
	fs.IntVar(&s.Workers, "workers", runtime.NumCPU(), "scheduler pool participants (all parallel kernels)")
	return s
}

// Options returns engine options carrying the scheduler flag; the caller
// fills the analysis knobs (TopK, Tau, Hold).
func (s *Sched) Options() core.Options {
	return core.Options{Workers: s.Workers}
}

// Corners carries the -corners flag after flag.Parse.
type Corners struct {
	Spec string
}

// CornersFlag registers -corners on the default flag set. The value is a
// scenario spec in core.ParseScenarios grammar: named presets ("ss,tt,ff")
// and/or explicit derates ("hot:1.3/1.1/0.95" = delay/sigma/RC scale over
// nominal), one engine lane each. Empty means single-corner (nominal)
// analysis.
func CornersFlag() *Corners { return cornersFlag(flag.CommandLine) }

func cornersFlag(fs *flag.FlagSet) *Corners {
	c := &Corners{}
	fs.StringVar(&c.Spec, "corners", "",
		"corner scenarios: preset names and/or name:delay/sigma/rc derates, comma-separated (e.g. ss,tt,ff); empty = nominal only")
	return c
}

// Enabled reports whether multi-corner analysis was requested.
func (c *Corners) Enabled() bool { return c.Spec != "" }

// Scenarios parses the flag value into engine scenarios.
func (c *Corners) Scenarios() ([]core.Scenario, error) {
	return core.ParseScenarios(c.Spec)
}

// Obs carries the observability flags after flag.Parse: -trace (Chrome
// trace_event export), -manifest (JSON run record under results/manifests/),
// and -log-level (slog threshold for the default logger).
type Obs struct {
	TracePath string
	Manifest  bool
	LogLevel  string

	tool    string
	started time.Time
	tracer  *obs.Tracer
}

// ObsFlags registers -trace, -manifest and -log-level on the default flag
// set. Call before flag.Parse, then Setup right after it.
func ObsFlags() *Obs {
	o := &Obs{}
	flag.StringVar(&o.TracePath, "trace", "", "write a Chrome trace_event JSON of the run to this path")
	flag.BoolVar(&o.Manifest, "manifest", false, "write a JSON run manifest under "+obs.DefaultManifestDir+" (or $INSTA_MANIFEST_DIR)")
	flag.StringVar(&o.LogLevel, "log-level", "info", "slog threshold: debug, info, warn or error")
	return o
}

// Setup applies -log-level to the process-default slog logger and, when
// -trace or -manifest was requested, returns an enabled tracer to hand to the
// engines (nil otherwise — engines take a nil tracer at zero cost). Call once
// after flag.Parse; pair with a deferred Finish.
func (o *Obs) Setup(tool string) *obs.Tracer {
	o.tool, o.started = tool, time.Now()
	var lvl slog.Level
	switch strings.ToLower(o.LogLevel) {
	case "debug":
		lvl = slog.LevelDebug
	case "info", "":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		fmt.Fprintf(os.Stderr, "bad -log-level %q: want debug, info, warn or error\n", o.LogLevel)
		os.Exit(2)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
	if o.TracePath != "" || o.Manifest {
		o.tracer = obs.NewTracer()
	}
	return o.tracer
}

// Tracer returns the tracer Setup created, or nil when neither -trace nor
// -manifest was requested.
func (o *Obs) Tracer() *obs.Tracer { return o.tracer }

// Finish flushes the requested telemetry: the Chrome trace to -trace, and a
// run manifest (tool, wall time, git describe, phase rollup) with -manifest.
// fill customizes the manifest — design name, engine shape, WNS/TNS — before
// it is written; pass nil to record just the run skeleton. Safe to defer
// unconditionally: it is a no-op when neither flag was set.
func (o *Obs) Finish(fill func(*obs.Manifest)) {
	if o.tracer == nil {
		return
	}
	if o.TracePath != "" {
		f, err := os.Create(o.TracePath)
		if err != nil {
			slog.Error("trace export", "err", err)
		} else {
			err = o.tracer.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				slog.Error("trace export", "path", o.TracePath, "err", err)
			} else {
				slog.Info("trace written", "path", o.TracePath, "spans", o.tracer.NumSpans())
			}
		}
	}
	if o.Manifest {
		m := &obs.Manifest{
			Tool:      o.tool,
			StartedAt: o.started,
			WallMS:    float64(time.Since(o.started).Nanoseconds()) / 1e6,
		}
		m.FillPhases(o.tracer)
		m.FillGC()
		if fill != nil {
			fill(m)
		}
		path, err := obs.WriteManifest(obs.ManifestDir(), m)
		if err != nil {
			slog.Error("manifest write", "err", err)
		} else {
			slog.Info("manifest written", "path", path)
		}
	}
}

// SpecByName resolves a preset name across the block (Table I), IWLS-like
// (Table II) and superblue-like (Table III) suites.
func SpecByName(name string) (bench.Spec, error) {
	if spec, err := bench.BlockSpec(name); err == nil {
		return spec, nil
	}
	if spec, err := bench.IWLSSpec(name); err == nil {
		return spec, nil
	}
	if spec, err := bench.SuperblueSpec(name); err == nil {
		return spec, nil
	}
	return bench.Spec{}, fmt.Errorf("unknown preset %q", name)
}

// designPaths returns the four canonical file paths under dir.
func designPaths(dir string) (lib, v, sdcp, spefp string) {
	return filepath.Join(dir, "design.lib"),
		filepath.Join(dir, "design.v"),
		filepath.Join(dir, "design.sdc"),
		filepath.Join(dir, "design.spef")
}

// GenerateDir materializes a preset into dir as design.lib/.v/.sdc/.spef.
func GenerateDir(dir string, spec bench.Spec) (*bench.Design, error) {
	b, err := bench.Generate(spec)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	libPath, vPath, sdcPath, spefPath := designPaths(dir)
	write := func(path string, fn func(*os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}
	if err := write(libPath, func(f *os.File) error { return libertyio.Write(f, b.Lib) }); err != nil {
		return nil, err
	}
	if err := write(vPath, func(f *os.File) error { return vlog.Write(f, b.D, b.Lib) }); err != nil {
		return nil, err
	}
	if err := write(sdcPath, func(f *os.File) error { return sdcio.Write(f, b.Con, b.D) }); err != nil {
		return nil, err
	}
	if err := write(spefPath, func(f *os.File) error { return spef.Write(f, b.Par, b.D) }); err != nil {
		return nil, err
	}
	return b, nil
}

// LoadDir reads a design directory (design.v/.sdc/.spef, with design.lib
// optional) into the bench bundle the engines initialize from. When
// design.lib is absent, tech selects the synthetic fallback library: "n3"
// (also the "" default) or "asap7".
func LoadDir(dir, tech string) (*bench.Design, error) {
	libPath, vPath, sdcPath, spefPath := designPaths(dir)

	var lib *liberty.Library
	if fl, err := os.Open(libPath); err == nil {
		lib, err = libertyio.Read(fl)
		fl.Close()
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", libPath, err)
		}
	} else {
		switch tech {
		case "asap7":
			lib = liberty.NewSynthetic(liberty.TechASAP7())
		case "n3", "":
			lib = liberty.NewSynthetic(liberty.TechN3())
		default:
			return nil, fmt.Errorf("unknown tech %q", tech)
		}
	}

	fv, err := os.Open(vPath)
	if err != nil {
		return nil, err
	}
	d, err := vlog.Read(fv, lib)
	fv.Close()
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", vPath, err)
	}

	fs, err := os.Open(sdcPath)
	if err != nil {
		return nil, err
	}
	con, err := sdcio.Read(fs, d)
	fs.Close()
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", sdcPath, err)
	}

	fp, err := os.Open(spefPath)
	if err != nil {
		return nil, err
	}
	par, err := spef.Read(fp, d)
	fp.Close()
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", spefPath, err)
	}
	return &bench.Design{D: d, Lib: lib, Con: con, Par: par}, nil
}
