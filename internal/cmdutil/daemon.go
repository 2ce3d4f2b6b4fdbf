package cmdutil

// The serving daemon's flag set: everything that decides what one
// insta-served process serves and how, declared once. insta-served registers
// it for itself; insta-router registers the same set and hands it on to the
// server.Daemon of each in-process replica, so a fleet replica cannot be
// configured differently from a lone daemon. Only the listen address is not
// part of it: each daemon has its own.

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"insta/internal/obs"
	"insta/internal/obs/shell"
)

// Daemon carries the daemon flag set after flag.Parse.
type Daemon struct {
	Design, Dir, Tech string
	TopK, MaxSessions int
	TTL, Sweep, Drain time.Duration
	Sched             *Sched
	Corners           *Corners
	Snap              *Snap

	// Shell holds the request shell's flags, shared by a daemon and the router
	// in front; the Tracer is the caller's to fill in.
	Shell shell.Options

	// ManifestDir, not a flag: the main sets it from -manifest to have every
	// session commit write a run manifest there.
	ManifestDir string
}

// DaemonFlags registers the daemon flag set on fs (flag.CommandLine in the
// mains). Call before fs.Parse; read the fields after.
func DaemonFlags(fs *flag.FlagSet) *Daemon {
	d := &Daemon{}
	fs.StringVar(&d.Design, "design", "", "serve a built-in preset (block-*/IWLS/superblue name)")
	fs.StringVar(&d.Dir, "dir", "", "serve a design directory (design.lib/.v/.sdc/.spef)")
	fs.StringVar(&d.Tech, "tech", "", "fallback library when design.lib is absent: n3 or asap7")
	fs.IntVar(&d.TopK, "topk", 32, "INSTA Top-K")
	fs.IntVar(&d.MaxSessions, "max-sessions", 64, "admission cap on live sessions, per daemon")
	fs.DurationVar(&d.TTL, "ttl", 5*time.Minute, "idle session lifetime")
	fs.DurationVar(&d.Sweep, "sweep", 30*time.Second, "eviction sweep interval")
	fs.DurationVar(&d.Drain, "drain", 10*time.Second, "graceful shutdown budget")
	fs.IntVar(&d.Shell.FlightSize, "flight-size", 4096, "request flight-recorder ring entries (negative disables)")
	fs.DurationVar(&d.Shell.FlightPin, "flight-pin", 250*time.Millisecond, "latency at which a request pins as an anomaly")
	fs.DurationVar(&d.Shell.SLOObjective, "slo-objective", 100*time.Millisecond, "request latency SLO objective")
	fs.Float64Var(&d.Shell.SLOBudget, "slo-budget", 0.01, "SLO error budget fraction")
	d.Sched, d.Corners, d.Snap = schedFlags(fs), cornersFlag(fs), snapFlags(fs)
	return d
}

// Boot obtains the compiled design the flags name — exactly one of -design
// and -dir — warm from the snapshot cache when it holds it.
func (d *Daemon) Boot(tr *obs.Tracer) (*Boot, error) {
	switch {
	case d.Design != "" && d.Dir != "":
		return nil, errors.New("pass -design or -dir, not both")
	case d.Design != "":
		spec, err := SpecByName(d.Design)
		if err != nil {
			return nil, err
		}
		bt, err := d.Snap.BootPreset(spec, tr)
		if err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		bt.Design = spec.Name
		return bt, nil
	case d.Dir != "":
		bt, err := d.Snap.BootDir(d.Dir, d.Tech, tr)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", d.Dir, err)
		}
		return bt, nil
	}
	return nil, errors.New("pass -design <preset> or -dir <design directory>")
}
