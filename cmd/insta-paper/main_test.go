package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insta/internal/core"
)

// TestArtifactsMatchResults renders every artifact but table2 (a minute and
// more of sizing flows) in process and holds each deterministic cell of the
// committed results/<name>.txt to it, byte for byte. Only what a rerun may
// move is masked: the provenance line, durations, Fig. 7's speed-up line and
// Fig. 9's overhead line. The render runs on one worker; the committed files
// were made at the command's default of NumCPU, so a pass also says the
// deterministic cells do not depend on the worker count.
func TestArtifactsMatchResults(t *testing.T) {
	for _, name := range []string{"table1_fig6", "fig7_fig8", "table3_fig9", "pocv_validation"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a, ok := lookup(name)
			if !ok {
				t.Fatalf("no artifact %q", name)
			}
			file, err := os.ReadFile(filepath.Join("..", "..", "results", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			prov, body, _ := bytes.Cut(file, []byte("\n"))
			if !bytes.HasPrefix(prov, []byte("# go run ./cmd/insta-paper ")) {
				t.Fatalf("first line %q is not the command that made the file", prov)
			}
			var got bytes.Buffer
			if err := a.render(&got, core.Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			want, have := deterministic(body), deterministic(got.Bytes())
			for i := range max(len(want), len(have)) {
				var w, h string
				if i < len(want) {
					w = want[i]
				}
				if i < len(have) {
					h = have[i]
				}
				if w != h {
					t.Errorf("results/%s.txt line %d:\n committed %q\n  rendered %q", name, i+2, w, h)
				}
			}
		})
	}
}

// deterministic returns an artifact's lines with what a rerun may move
// masked: every token time.ParseDuration accepts (a bRT= prefix stripped
// first) but a bare 0, which is a count, and the two summary lines that are
// ratios of durations.
func deterministic(text []byte) []string {
	lines := strings.Split(strings.TrimRight(string(text), "\n"), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "avg: in-house ") || strings.HasPrefix(line, "INSTA-Place iteration overhead ") {
			lines[i] = "<timed>"
			continue
		}
		f := strings.Fields(line)
		for j, tok := range f {
			if _, err := time.ParseDuration(strings.TrimPrefix(tok, "bRT=")); err == nil && strings.TrimLeft(tok, "+-") != "0" {
				f[j] = "<t>"
			}
		}
		lines[i] = strings.Join(f, " ")
	}
	return lines
}
