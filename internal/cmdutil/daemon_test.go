package cmdutil

import (
	"flag"
	"reflect"
	"testing"
	"time"

	"insta/internal/obs/shell"
)

// TestDaemonFlagsParse: the daemon flag set registers on the caller's flag
// set, next to the caller's own flags, and every flag of it lands in the field
// a daemon is configured from.
func TestDaemonFlagsParse(t *testing.T) {
	fs := flag.NewFlagSet("router", flag.ContinueOnError)
	fs.String("addr", ":8090", "a flag of the caller's own")
	df := DaemonFlags(fs)
	if err := fs.Parse([]string{
		"-design", "des", "-dir", "/d", "-tech", "asap7", "-topk", "8",
		"-max-sessions", "7", "-ttl", "90s", "-sweep", "11s", "-drain", "3s",
		"-workers", "3", "-corners", "ss,tt,hot:1.3/1.1/0.95",
		"-snapshot-dir", "/snap", "-snapshot-max-mb", "12",
		"-flight-size", "-1", "-flight-pin", "40ms", "-slo-objective", "5ms", "-slo-budget", "0.25",
	}); err != nil {
		t.Fatal(err)
	}
	want := &Daemon{
		Design: "des", Dir: "/d", Tech: "asap7", TopK: 8, MaxSessions: 7,
		TTL: 90 * time.Second, Sweep: 11 * time.Second, Drain: 3 * time.Second,
		Sched:   &Sched{Workers: 3},
		Corners: &Corners{Spec: "ss,tt,hot:1.3/1.1/0.95"},
		Snap:    &Snap{Dir: "/snap", MaxMB: 12},
		Shell: shell.Options{
			FlightSize: -1, FlightPin: 40 * time.Millisecond,
			SLOObjective: 5 * time.Millisecond, SLOBudget: 0.25,
		},
	}
	if !reflect.DeepEqual(df, want) {
		t.Fatalf("parsed into\n%+v, want\n%+v", df, want)
	}
}
