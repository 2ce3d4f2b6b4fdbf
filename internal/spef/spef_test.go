package spef

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"insta/internal/bench"
	"insta/internal/liberty"
)

func genDesign(t testing.TB) *bench.Design {
	t.Helper()
	b, err := bench.Generate(bench.Spec{
		Name: "speftest", Seed: 3, Tech: liberty.TechN3(),
		Groups: 2, FFsPerGroup: 4, Layers: 3, Width: 5,
		CrossFrac: 0.1, NumPIs: 2, NumPOs: 2,
		Period: 800, Uncertainty: 10, Die: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRoundTrip(t *testing.T) {
	b := genDesign(t)
	var buf bytes.Buffer
	if err := Write(&buf, b.Par, b.D); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()), b.D)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params != b.Par.Params {
		t.Errorf("params %+v != %+v", got.Params, b.Par.Params)
	}
	for i := range b.Par.Nets {
		if !reflect.DeepEqual(got.Nets[i].Branch, b.Par.Nets[i].Branch) {
			t.Fatalf("net %d branches differ", i)
		}
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	b := genDesign(t)
	var buf bytes.Buffer
	if err := Write(&buf, b.Par, b.D); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"wrong design":  strings.Replace(good, "*DESIGN speftest", "*DESIGN other", 1),
		"unknown net":   strings.Replace(good, "*D_NET ", "*D_NET ghost_", 1),
		"orphan branch": "*SPEF insta v1\n*DESIGN speftest\n*PARAMS 1 1 1 1 1\n*BRANCH 0 1 1 1\n",
		"bad dialect":   strings.Replace(good, "insta v1", "ieee", 1),
		"truncated":     good[:len(good)/2],
	}
	for name, doc := range cases {
		if _, err := Read(strings.NewReader(doc), b.D); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadRejectsMissingNets(t *testing.T) {
	b := genDesign(t)
	doc := "*SPEF insta v1\n*DESIGN speftest\n*PARAMS 1 1 1 1 1\n*END\n"
	if _, err := Read(strings.NewReader(doc), b.D); err == nil {
		t.Error("file without nets accepted")
	}
}

// TestReadRejectsNonFinite: NaN and ±Inf parse as floats, and
// rc.Parasitics.Validate lets them through (NaN < 0 is false), so Read itself
// must refuse them — in *PARAMS and in every *BRANCH field — as it refuses a
// branch out of index order and a net given twice, naming the line.
func TestReadRejectsNonFinite(t *testing.T) {
	b := genDesign(t)
	var buf bytes.Buffer
	if err := Write(&buf, b.Par, b.D); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	params, dnet := -1, -1
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "*PARAMS "):
			params = i
		case dnet < 0 && strings.HasPrefix(l, "*D_NET ") && strings.HasSuffix(l, " 2"):
			dnet = i
		}
	}
	if params < 0 || dnet < 0 {
		t.Fatal("no *PARAMS line or no two-branch net to edit")
	}
	// field returns the document with field f of line i replaced by v.
	field := func(i, f int, v string) []string {
		out := slices.Clone(lines)
		fs := strings.Fields(out[i])
		fs[f] = v
		out[i] = strings.Join(fs, " ")
		return out
	}
	cases := []struct {
		name string
		doc  []string
		line int // 0-based index of the line the error must name
	}{
		{"params NaN", field(params, 1, "NaN"), params},
		{"params +Inf", field(params, 5, "+Inf"), params},
		{"branch length NaN", field(dnet+1, 2, "NaN"), dnet + 1},
		{"branch R -Inf", field(dnet+2, 3, "-Inf"), dnet + 2},
		{"branch C Inf", field(dnet+1, 4, "Inf"), dnet + 1},
		{"branch index repeated", field(dnet+2, 1, "0"), dnet + 2},
		{"branch index skipped", field(dnet+1, 1, "1"), dnet + 1},
		{"net repeated", slices.Insert(slices.Clone(lines), dnet+3, lines[dnet:dnet+3]...), dnet + 3},
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(strings.Join(c.doc, "\n")), b.D)
		if want := fmt.Sprintf("line %d:", c.line+1); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, want)
		}
	}
}
