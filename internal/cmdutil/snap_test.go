package cmdutil

import (
	"slices"
	"testing"

	"insta/internal/bench"
	"insta/internal/circuitops"
	"insta/internal/core"
	"insta/internal/liberty"
)

// bootSpec is small enough that every test here cold-builds in milliseconds.
func bootSpec(seed int64) bench.Spec {
	return bench.Spec{
		Name: "boottest", Seed: seed, Groups: 2, FFsPerGroup: 8, Layers: 4,
		Width: 8, CrossFrac: 0.1, NumPIs: 3, NumPOs: 3, Period: 1,
		Uncertainty: 10, Die: 80, VioFrac: 0.1, Tech: liberty.TechN3(),
	}
}

func wnsTNS(t *testing.T, st *core.State) (float64, float64) {
	t.Helper()
	e, err := core.NewEngineFromState(st, core.Options{TopK: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run()
	return e.WNS(), e.TNS()
}

// sameTables compares two table sets row for row (a nil and an empty table
// are the same table).
func sameTables(a, b *circuitops.Tables) bool {
	return a.Design == b.Design && a.NumPins == b.NumPins && a.Period == b.Period && a.NSigma == b.NSigma &&
		slices.Equal(a.Arcs, b.Arcs) && slices.Equal(a.SPs, b.SPs) && slices.Equal(a.EPs, b.EPs) &&
		slices.Equal(a.ClockNodes, b.ClockNodes) && slices.Equal(a.Exceptions, b.Exceptions)
}

func TestBootPresetWarmCycle(t *testing.T) {
	s := &Snap{Dir: t.TempDir(), MaxMB: 16}
	spec := bootSpec(1)

	cold, err := s.BootPreset(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Warm || cold.Ref == nil || cold.B == nil || cold.State == nil || cold.Key == "" {
		t.Fatalf("cold boot shape wrong: %+v", cold)
	}
	if cold.Mode() != "cold" || cold.Build <= 0 {
		t.Fatalf("cold boot mode %q build %v", cold.Mode(), cold.Build)
	}

	warm, err := s.BootPreset(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm || warm.Ref != nil || warm.B != nil || warm.State == nil {
		t.Fatalf("warm boot shape wrong: %+v", warm)
	}
	if warm.Key != cold.Key {
		t.Fatalf("key changed across identical boots: %s vs %s", warm.Key, cold.Key)
	}
	if warm.Mode() != "warm" || warm.Load <= 0 {
		t.Fatalf("warm boot mode %q load %v", warm.Mode(), warm.Load)
	}
	// Boot.Tables() reproduces the extraction row for row on both paths.
	want := circuitops.Extract(cold.Ref)
	for _, bt := range []*Boot{cold, warm} {
		if !sameTables(bt.Tables(), want) {
			t.Fatalf("%s boot: Tables() disagrees with the extraction", bt.Mode())
		}
	}

	cw, ct := wnsTNS(t, cold.State)
	ww, wt := wnsTNS(t, warm.State)
	if cw != ww || ct != wt {
		t.Fatalf("warm boot not bit-identical: cold %v/%v warm %v/%v", cw, ct, ww, wt)
	}
}

func TestBootDirWarmCycleAndInvalidation(t *testing.T) {
	s := &Snap{Dir: t.TempDir(), MaxMB: 16}
	dir := t.TempDir()
	if _, err := GenerateDir(dir, bootSpec(1)); err != nil {
		t.Fatal(err)
	}

	cold, err := s.BootDir(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Warm || cold.Key == "" {
		t.Fatalf("first dir boot should be cold with a key, got %+v", cold)
	}
	warm, err := s.BootDir(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm || warm.Design != cold.Design {
		t.Fatalf("second dir boot should be warm for %q, got %+v", cold.Design, warm)
	}

	// Changing the design files must change the content address: no stale
	// snapshot can be reached, so the boot goes cold again.
	if _, err := GenerateDir(dir, bootSpec(2)); err != nil {
		t.Fatal(err)
	}
	again, err := s.BootDir(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Warm {
		t.Fatal("edited inputs still booted warm: stale snapshot served")
	}
	if again.Key == cold.Key {
		t.Fatal("edited inputs hashed to the same key")
	}
}

func TestBootDisabledRunsCold(t *testing.T) {
	s := &Snap{} // no -snapshot-dir
	if s.Enabled() || s.Cache() != nil {
		t.Fatal("zero Snap should be disabled")
	}
	bt, err := s.BootPreset(bootSpec(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Warm || bt.Key != "" || bt.Cache != nil || bt.State == nil || bt.Ref == nil {
		t.Fatalf("disabled boot shape wrong: %+v", bt)
	}
}
