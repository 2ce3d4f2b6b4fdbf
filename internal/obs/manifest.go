package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// DefaultManifestDir is where run manifests land relative to the working
// directory unless INSTA_MANIFEST_DIR overrides it — results/manifests/ at
// the repo root, next to the results/prNN_*.jsonl benchmark runs the manifests
// make attributable.
const DefaultManifestDir = "results/manifests"

// Manifest is the JSON record of one run: a CLI invocation, or one session
// commit on the serving daemon. The schema is append-only — downstream
// tooling diffs manifests across PRs, so fields are only ever added.
type Manifest struct {
	Tool      string    `json:"tool"`
	Design    string    `json:"design,omitempty"`
	Git       string    `json:"git,omitempty"`
	StartedAt time.Time `json:"started_at"`
	WallMS    float64   `json:"wall_ms"`

	// Engine shape.
	Pins      int `json:"pins,omitempty"`
	Arcs      int `json:"arcs,omitempty"`
	Endpoints int `json:"endpoints,omitempty"`
	Levels    int `json:"levels,omitempty"`

	// Configuration.
	TopK      int      `json:"top_k,omitempty"`
	Workers   int      `json:"workers,omitempty"`
	Scenarios []string `json:"scenarios,omitempty"`

	// Timing figures, in ps. Before/after bracket whatever the run changed
	// (an ECO commit, a sizing pass); single-evaluation runs fill only After.
	WNSBefore float64 `json:"wns_before,omitempty"`
	TNSBefore float64 `json:"tns_before,omitempty"`
	WNSAfter  float64 `json:"wns_after,omitempty"`
	TNSAfter  float64 `json:"tns_after,omitempty"`

	// Boot provenance: how the run obtained its compiled state (see
	// internal/snap). "warm" runs loaded a snapshot in SnapLoadMS; "cold"
	// runs paid the full parse+signoff+extract+compile ColdBuildMS and wrote
	// the snapshot back when a cache was configured.
	BootMode    string  `json:"boot_mode,omitempty"`
	SnapshotKey string  `json:"snapshot_key,omitempty"`
	SnapLoadMS  float64 `json:"snap_load_ms,omitempty"`
	ColdBuildMS float64 `json:"cold_build_ms,omitempty"`

	// Allocator/collector footprint over the process lifetime at manifest
	// close (FillGC): collection count, cumulative stop-the-world pause and
	// cumulative bytes allocated. Optional and append-only like every
	// manifest field; the benchmark's allocs_per_op and server.gc_pause_max_us
	// hold the per-operation view, these give a production run's coarse
	// whole-process counterpart.
	NumGC        uint32  `json:"num_gc,omitempty"`
	GCPauseMS    float64 `json:"gc_pause_ms,omitempty"`
	AllocTotalMB float64 `json:"alloc_total_mb,omitempty"`

	// Phase rollup from the tracer (FillPhases), heaviest first.
	Phases []PhaseEntry `json:"phases,omitempty"`

	// Extra carries tool-specific keys (eco counts, session ids, correlation
	// figures) without schema churn.
	Extra map[string]any `json:"extra,omitempty"`
}

// PhaseEntry is one phase's share of a run in a manifest.
type PhaseEntry struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	Count  int64   `json:"count"`
}

// FillGC snapshots the runtime's allocator and collector counters into the
// manifest. ReadMemStats is a stop-the-world point, so call this once at
// manifest close, never inside a measured loop.
func (m *Manifest) FillGC() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.NumGC = ms.NumGC
	m.GCPauseMS = float64(ms.PauseTotalNs) / 1e6
	m.AllocTotalMB = float64(ms.TotalAlloc) / 1e6
}

// FillPhases populates the manifest's phase rollup from the tracer's span
// totals. Nil-safe on a nil tracer (no-op).
func (m *Manifest) FillPhases(t *Tracer) {
	for _, pt := range t.Totals() {
		m.Phases = append(m.Phases, PhaseEntry{
			Name:   pt.Name,
			WallMS: float64(pt.Wall.Nanoseconds()) / 1e6,
			Count:  pt.Count,
		})
	}
}

// AddExtra sets one tool-specific key.
func (m *Manifest) AddExtra(key string, v any) {
	if m.Extra == nil {
		m.Extra = make(map[string]any)
	}
	m.Extra[key] = v
}

// gitDescribe caches the one git invocation per process.
var gitDescribe struct {
	once bool
	val  string
}

// GitDescribe returns `git describe --always --dirty` for the working
// directory, or "" when git (or a repository) is unavailable. The value is
// cached for the process lifetime.
func GitDescribe() string {
	if gitDescribe.once {
		return gitDescribe.val
	}
	gitDescribe.once = true
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err == nil {
		gitDescribe.val = strings.TrimSpace(string(out))
	}
	return gitDescribe.val
}

// ManifestDir resolves the manifest output directory: INSTA_MANIFEST_DIR when
// set, else DefaultManifestDir.
func ManifestDir() string {
	if dir := os.Getenv("INSTA_MANIFEST_DIR"); dir != "" {
		return dir
	}
	return DefaultManifestDir
}

// WriteManifest fills Git (when unset), stamps the filename with the tool,
// design and start time, and writes the manifest as indented JSON under dir
// (created if needed). It returns the file path.
func WriteManifest(dir string, m *Manifest) (string, error) {
	if m.Git == "" {
		m.Git = GitDescribe()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := m.Tool
	if m.Design != "" {
		name += "-" + m.Design
	}
	// Nanosecond stamp keeps concurrent commit manifests collision-free
	// without coordination.
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", sanitize(name), m.StartedAt.UnixNano()))
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// sanitize keeps manifest filenames shell-friendly.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}
