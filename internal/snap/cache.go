package snap

// Content-addressed snapshot cache: snapshots are stored under
// <dir>/<key>.snap where key is a hash of everything the compiled state
// depends on (input file contents plus build-relevant options and the format
// version), so "same inputs" and "same snapshot" are the same statement and
// no invalidation protocol is needed — a changed netlist simply hashes to a
// different file. Writes go through a temp file in the same directory plus
// an atomic rename, so concurrent tool invocations sharing one
// -snapshot-dir never observe a partial snapshot; the worst race is two
// processes writing the same (identical) file, where last-rename wins. The
// cache is LRU-bounded by bytes using file mtimes as the recency clock
// (loads touch the file).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"insta/internal/bench"
	"insta/internal/core"
	"insta/internal/obs"
)

// Cache is a byte-bounded content-addressed snapshot store. All methods are
// safe for concurrent use within and across processes.
type Cache struct {
	dir      string
	maxBytes int64 // <= 0 means unbounded

	hits, misses, evictions, corrupt atomic.Int64
}

// NewCache opens (creating if needed) a snapshot cache under dir, bounded to
// maxBytes of snapshot files (<= 0 for unbounded).
func NewCache(dir string, maxBytes int64) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("snap: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir, maxBytes: maxBytes}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// Path returns where the snapshot for key lives (whether or not it exists).
func (c *Cache) Path(key string) string {
	return filepath.Join(c.dir, sanitizeKey(key)+".snap")
}

// sanitizeKey keeps cache filenames flat even for hand-made keys: path
// separators and dots cannot escape the cache directory.
func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, key)
}

// Load returns the cached snapshot for key, or (nil, nil) on a clean miss.
// A corrupt cache entry is removed, counted, and returned as (nil, err) with
// err matching ErrCorrupt — callers log it and take the cold path; the next
// run's write-back repairs the cache.
func (c *Cache) Load(key string) (*Snapshot, error) {
	path := c.Path(key)
	buf, err := os.ReadFile(path)
	if err != nil {
		c.misses.Add(1)
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	s, err := Decode(buf)
	if err != nil {
		c.corrupt.Add(1)
		os.Remove(path)
		return nil, err
	}
	c.hits.Add(1)
	now := time.Now()
	os.Chtimes(path, now, now) // LRU touch; best-effort
	return s, nil
}

// Store serializes st (plus optional scenarios) under key — atomically, via
// a temp file in the cache directory and a rename — then enforces the byte
// bound. Returns the final path and encoded size.
func (c *Cache) Store(key string, st *core.State, scns []core.Scenario) (string, int64, error) {
	return c.StoreBytes(key, Encode(st, scns, key))
}

// StoreBytes stores an already-encoded snapshot buffer under key with the
// same atomic temp-file + rename + eviction discipline as Store. It is the
// write path for containers Encode doesn't produce directly (e.g. block-model
// sections via EncodeExtra).
func (c *Cache) StoreBytes(key string, buf []byte) (string, int64, error) {
	f, err := os.CreateTemp(c.dir, ".snap-*")
	if err != nil {
		return "", 0, err
	}
	tmp := f.Name()
	_, werr := f.Write(buf)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return "", 0, werr
	}
	path := c.Path(key)
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", 0, err
	}
	c.evict(path)
	return path, int64(len(buf)), nil
}

// evict removes oldest-touched snapshots until the cache fits maxBytes,
// never removing keep (the entry just written).
func (c *Cache) evict(keep string) {
	if c.maxBytes <= 0 {
		return
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type file struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []file
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, file{filepath.Join(c.dir, e.Name()), info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= c.maxBytes {
			return
		}
		if f.path == keep {
			continue
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			c.evictions.Add(1)
		}
	}
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits, Misses, Evictions, Corrupt int64
}

// Stats returns the current counter values.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Corrupt:   c.corrupt.Load(),
	}
}

// Register exposes the cache counters on a metrics registry as
// insta_snap_cache_{hits,misses,evictions,corrupt}_total.
func (c *Cache) Register(reg *obs.Registry) {
	reg.Collector("insta_snap_cache", func(w io.Writer) {
		s := c.Stats()
		for _, row := range []struct {
			name string
			v    int64
		}{
			{"insta_snap_cache_hits_total", s.Hits},
			{"insta_snap_cache_misses_total", s.Misses},
			{"insta_snap_cache_evictions_total", s.Evictions},
			{"insta_snap_cache_corrupt_total", s.Corrupt},
		} {
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", row.name, row.name, row.v)
		}
	})
}

// KeyForInputs derives the content-addressed cache key: a hex SHA-256 over
// the snapshot format version, the given option strings (anything that
// changes the compiled state — e.g. the fallback tech library), and the
// *contents* of the given files. Identical inputs hash to the same key
// regardless of where the files live; any edit changes the key, so stale
// snapshots are unreachable rather than invalidated.
func KeyForInputs(opts []string, files ...string) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "insta-snap-v%d\n", Version)
	for _, o := range opts {
		fmt.Fprintf(h, "opt:%d:%s\n", len(o), o)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		info, err := f.Stat()
		if err == nil {
			fmt.Fprintf(h, "file:%d\n", info.Size())
		}
		_, cerr := io.Copy(h, f)
		f.Close()
		if cerr != nil {
			return "", cerr
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// KeyForSpec derives the cache key for a generated preset: presets are pure
// functions of their spec string, so the spec plus the format version is the
// full content address.
func KeyForSpec(parts ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "insta-snap-v%d\n", Version)
	for _, p := range parts {
		fmt.Fprintf(h, "spec:%d:%s\n", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// KeyForPreset is the canonical key for a built-in benchmark spec, shared by
// every tool that boots presets (cmdutil boot helpers, the exp harnesses) so
// one snapshot serves them all. The %+v rendering is deterministic and covers
// every generation parameter including the tech library tables.
func KeyForPreset(spec bench.Spec) string {
	return KeyForSpec("preset", fmt.Sprintf("%+v", spec))
}
