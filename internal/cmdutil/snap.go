package cmdutil

// Snapshot flags and the shared boot path: every cmd tool takes
// -snapshot-dir/-snapshot-max-mb, hashes its inputs to a content address, and
// either warm-starts from a cached compiled-state snapshot (internal/snap) or
// cold-builds — parse, reference signoff, extraction, compile — and writes the
// snapshot back for the next invocation. Warm boots skip the reference engine
// entirely, so Boot.Ref is nil on the warm path and ref-dependent reporting
// (correlation, path reports, resize-form ECOs) degrades explicitly.

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/obs"
	"insta/internal/refsta"
	"insta/internal/snap"
)

// Snap carries the snapshot-cache flags after flag.Parse.
type Snap struct {
	Dir   string
	MaxMB int64

	cache    *snap.Cache
	cacheErr bool
}

// SnapFlags registers -snapshot-dir and -snapshot-max-mb on the default flag
// set. Call before flag.Parse; empty -snapshot-dir (the default) disables
// snapshots entirely.
func SnapFlags() *Snap { return snapFlags(flag.CommandLine) }

func snapFlags(fs *flag.FlagSet) *Snap {
	s := &Snap{}
	fs.StringVar(&s.Dir, "snapshot-dir", "",
		"content-addressed snapshot cache: warm-start from a compiled-state snapshot when the inputs hash to a cached entry, write one back after cold builds (empty = off)")
	fs.Int64Var(&s.MaxMB, "snapshot-max-mb", 2048,
		"snapshot cache byte bound in MB, LRU-evicted (<= 0 = unbounded)")
	return s
}

// Enabled reports whether -snapshot-dir was given.
func (s *Snap) Enabled() bool { return s.Dir != "" }

// Cache lazily opens the snapshot cache, or returns nil when snapshots are
// disabled or the directory cannot be created (warned once; tools then run
// cold exactly as if -snapshot-dir was never passed).
func (s *Snap) Cache() *snap.Cache {
	if !s.Enabled() || s.cacheErr {
		return nil
	}
	if s.cache == nil {
		c, err := snap.NewCache(s.Dir, s.MaxMB*1e6)
		if err != nil {
			slog.Warn("snapshot cache disabled", "dir", s.Dir, "err", err)
			s.cacheErr = true
			return nil
		}
		s.cache = c
	}
	return s.cache
}

// Boot is the result of obtaining compiled timing state, either warm (from a
// snapshot) or cold (full parse + signoff + extraction + compile).
type Boot struct {
	Design string
	Warm   bool
	Key    string // content address; "" when snapshots are disabled

	// State is the compiled timing state, ready for
	// core.NewEngineFromState / core.NewEngineLanes. Always set.
	State *core.State

	// Cold-path artifacts: the parsed design bundle, the initialized
	// reference engine, and the extraction tables. All nil on warm boots.
	B   *bench.Design
	Ref *refsta.Engine
	Tab *circuitops.Tables

	// Load is the snapshot decode wall time (warm); Build is the full
	// cold-build wall time (cold).
	Load  time.Duration
	Build time.Duration

	// Cache is the snapshot cache, or nil when snapshots are disabled.
	Cache *snap.Cache
}

// Mode returns "warm" or "cold" for logs, manifests and /healthz.
func (b *Boot) Mode() string {
	if b.Warm {
		return "warm"
	}
	return "cold"
}

// FillManifest records the boot provenance on a run manifest.
func (b *Boot) FillManifest(m *obs.Manifest) {
	m.BootMode = b.Mode()
	m.SnapshotKey = b.Key
	m.SnapLoadMS = float64(b.Load.Nanoseconds()) / 1e6
	m.ColdBuildMS = float64(b.Build.Nanoseconds()) / 1e6
}

// Tables returns extraction tables for the boot: the cold path's extracted
// tables, or their reconstruction from the snapshot state on warm boots.
func (b *Boot) Tables() *circuitops.Tables {
	if b.Tab != nil {
		return b.Tab
	}
	return b.State.Tables()
}

// BootDir boots from a design directory (design.v/.sdc/.spef with design.lib
// optional): with a snapshot cache the file contents are hashed and a hit
// skips parsing and the reference engine entirely; a miss (or disabled cache)
// cold-builds and writes the snapshot back.
func (s *Snap) BootDir(dir, tech string, tr *obs.Tracer) (*Boot, error) {
	bt := &Boot{Cache: s.Cache()}
	if bt.Cache != nil {
		libPath, vPath, sdcPath, spefPath := designPaths(dir)
		files := []string{vPath, sdcPath, spefPath}
		opts := []string{"mode=dir"}
		if _, err := os.Stat(libPath); err == nil {
			files = append([]string{libPath}, files...)
		} else {
			// The fallback library is build input too: switching -tech must
			// hash to a different snapshot.
			opts = append(opts, "lib=synthetic:"+tech)
		}
		if key, err := snap.KeyForInputs(opts, files...); err == nil {
			bt.Key = key
			if s.tryWarm(bt, tr) {
				return bt, nil
			}
		}
	}
	sp := tr.Start("cold-build")
	t0 := time.Now()
	b, err := LoadDir(dir, tech)
	if err != nil {
		sp.End()
		return nil, err
	}
	return bt, s.finishCold(bt, b, b.D.Name, sp, t0)
}

// BootPreset boots a built-in benchmark spec: presets are pure functions of
// their spec, so the spec itself is the content address.
func (s *Snap) BootPreset(spec bench.Spec, tr *obs.Tracer) (*Boot, error) {
	bt := &Boot{Cache: s.Cache()}
	if bt.Cache != nil {
		bt.Key = snap.KeyForPreset(spec)
		if s.tryWarm(bt, tr) {
			return bt, nil
		}
	}
	sp := tr.Start("cold-build")
	t0 := time.Now()
	b, err := bench.Generate(spec)
	if err != nil {
		sp.End()
		return nil, err
	}
	return bt, s.finishCold(bt, b, spec.Name, sp, t0)
}

// tryWarm attempts the snapshot load; corruption falls through to the cold
// path (the write-back repairs the cache) rather than failing the tool.
func (s *Snap) tryWarm(bt *Boot, tr *obs.Tracer) bool {
	sp := tr.StartArg("snap-load", "key", int64(len(bt.Key)))
	t0 := time.Now()
	snp, err := bt.Cache.Load(bt.Key)
	bt.Load = time.Since(t0)
	sp.End()
	if err != nil {
		slog.Warn("snapshot unreadable, cold-building", "key", shortKey(bt.Key), "err", err)
		return false
	}
	if snp == nil {
		return false
	}
	bt.Warm, bt.State, bt.Design = true, snp.State, snp.State.Design
	slog.Info("warm start", "design", bt.Design, "snapshot", shortKey(bt.Key),
		"load", bt.Load.Round(time.Microsecond).String())
	return true
}

// finishCold runs signoff + extraction + compile over a parsed bundle and
// writes the snapshot back (best-effort) when a cache is configured.
func (s *Snap) finishCold(bt *Boot, b *bench.Design, name string, sp *obs.Span, t0 time.Time) error {
	ref, err := refsta.New(b.D, b.Lib, b.Con, b.Par, refsta.DefaultConfig())
	if err != nil {
		sp.End()
		return fmt.Errorf("refsta: %w", err)
	}
	tab := circuitops.Extract(ref)
	st, err := core.CompileTraced(tab, sp)
	sp.End()
	if err != nil {
		return err
	}
	bt.Design, bt.State, bt.B, bt.Ref, bt.Tab = name, st, b, ref, tab
	bt.Build = time.Since(t0)
	if bt.Cache != nil && bt.Key != "" {
		if _, _, err := bt.Cache.Store(bt.Key, st, nil); err != nil {
			slog.Warn("snapshot write-back failed", "key", shortKey(bt.Key), "err", err)
		} else {
			slog.Info("snapshot written", "design", name, "snapshot", shortKey(bt.Key))
		}
	}
	return nil
}

// shortKey abbreviates a content address for log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
