package cmdutil

import (
	"flag"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestDaemonArgsCarryEveryFlag: `insta-router -mode spawn` hands its children
// the daemon flag set through Args. Every flag the set registers must be in
// that argv (the hand-written list it replaces dropped -ttl, -grain, -corners
// and the four request-shell flags), and a child parsing it must end up
// configured exactly like the parent.
func TestDaemonArgsCarryEveryFlag(t *testing.T) {
	parent := flag.NewFlagSet("router", flag.ContinueOnError)
	parent.String("addr", ":8090", "a flag of the router's own, not to be passed on")
	df := DaemonFlags(parent)
	if err := parent.Parse([]string{
		"-design", "des", "-dir", "/d", "-tech", "asap7", "-topk", "8",
		"-max-sessions", "7", "-ttl", "90s", "-sweep", "11s", "-drain", "3s",
		"-workers", "3", "-grain", "64", "-corners", "ss,tt,hot:1.3/1.1/0.95",
		"-snapshot-dir", "/snap", "-snapshot-max-mb", "12",
		"-flight-size", "-1", "-flight-pin", "40ms", "-slo-objective", "5ms", "-slo-budget", "0.25",
	}); err != nil {
		t.Fatal(err)
	}

	var registered, passed []string
	parent.VisitAll(func(f *flag.Flag) {
		if f.Name != "addr" {
			registered = append(registered, f.Name)
		}
	})
	args := df.Args()
	for _, a := range args {
		name, _, ok := strings.Cut(strings.TrimPrefix(a, "-"), "=")
		if !ok {
			t.Fatalf("argv element %q is not -name=value", a)
		}
		passed = append(passed, name)
	}
	sort.Strings(passed)
	if !reflect.DeepEqual(passed, registered) {
		t.Fatalf("spawn argv carries %v,\nthe daemon flag set is %v", passed, registered)
	}

	child := flag.NewFlagSet("served", flag.ContinueOnError)
	cf := DaemonFlags(child)
	if err := child.Parse(args); err != nil {
		t.Fatal(err)
	}
	df.own, cf.own = nil, nil
	if !reflect.DeepEqual(cf, df) {
		t.Fatalf("child parsed the argv into\n%+v, parent has\n%+v", cf, df)
	}
	if cf.TTL.String() != "1m30s" || cf.Corners.Spec != "ss,tt,hot:1.3/1.1/0.95" || cf.Shell.FlightSize != -1 || cf.Sched.Grain != 64 {
		t.Fatalf("child flags %+v", cf)
	}
}
