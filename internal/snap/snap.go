// Package snap is the warm-start layer between extraction and propagation:
// a versioned, sectioned, checksummed binary container for the fully
// compiled timing state (core.State — levelized topology, SoA arc
// annotations, SP/EP attributes, clock arrival distributions, exception
// rows, fan-out CSR) plus the scenario derate blocks of a batched analysis.
// A snapshot reconstructs a ready-to-propagate core.Engine or batch.Engine
// without touching the original sources: no parsing, no reference signoff,
// no extraction, no levelization — boot from disk in milliseconds where the
// cold path takes seconds (see DESIGN.md §11; the benchmark's snap.load_ms
// rung against refsta.new_ms + circuitops.extract_ms + core.compile_ms).
//
// File layout (all integers little-endian):
//
//	magic "INSTSNAP" (8 B)
//	version  u32
//	sections u32
//	section × sections:  id u32 | byteLen u64 | payload
//	crc32c   u32         (Castagnoli, over everything before it)
//
// Section payloads are raw slabs decoded with one copy each (codec.go).
// Readers skip sections with unknown ids, so new sections can be added
// without a version bump; a version bump marks an incompatible layout.
// Every integrity failure — short file, bad magic, unsupported version,
// checksum mismatch, truncated section, or a decoded state that fails
// core.State.Validate — surfaces as a *CorruptError matching ErrCorrupt and
// never a panic, so callers always fall back cleanly to the cold build.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"insta/internal/batch"
	"insta/internal/core"
)

// Format identity.
const (
	Magic   = "INSTSNAP"
	Version = 1
)

// headerLen is magic + version + section count.
const headerLen = 8 + 4 + 4

// Section ids. Meta and scenarios are structured; everything at slabBase and
// above is a raw slab of one core.State field (see stateSlabs).
const (
	secMeta      = 1
	secScenarios = 2
	slabBase     = 16

	// SecBlockModel carries one serialized hier.BlockModel (hier/persist.go).
	// Readers predating it skip the section like any unknown id; newer
	// readers surface it through Snapshot.Extra.
	SecBlockModel = 3
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is the sentinel every integrity failure matches via errors.Is:
// callers gate the warm path on it and fall back to the cold build.
var ErrCorrupt = errors.New("snap: corrupt or incompatible snapshot")

// CorruptError carries the reason a snapshot was rejected.
type CorruptError struct {
	Reason string
}

func (e *CorruptError) Error() string { return "snap: corrupt snapshot: " + e.Reason }

// Is reports true for ErrCorrupt so errors.Is(err, snap.ErrCorrupt) works.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

func corruptf(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// Snapshot is a decoded snapshot: the compiled state, the scenario list
// recorded at write time (empty for single-corner snapshots), and the cache
// key it was stored under ("" when written outside a Cache).
type Snapshot struct {
	State     *core.State
	Scenarios []batch.Scenario
	Key       string
	Bytes     int64 // encoded size

	// Extra holds every section whose id is neither structured nor a known
	// state slab, in file order — payloads this reader has no schema for
	// (e.g. SecBlockModel sections, or sections from a newer minor
	// revision). They survive a canonical re-encode, so passing a file
	// through Decode/EncodeExtra never drops data it didn't understand.
	Extra []ExtraSection
}

// ExtraSection is one opaque section: an id outside this reader's schema and
// its raw payload.
type ExtraSection struct {
	ID      uint32
	Payload []byte
}

// Engine stands up a ready-to-propagate single-corner engine over the
// snapshot (see core.NewEngineFromState).
func (s *Snapshot) Engine(opt core.Options) (*core.Engine, error) {
	return core.NewEngineFromState(s.State, opt)
}

// Batch stands up a scenario-batched engine over the snapshot. A nil scns
// uses the scenario list recorded at write time.
func (s *Snapshot) Batch(scns []batch.Scenario, opt core.Options) (*batch.Engine, error) {
	if scns == nil {
		scns = s.Scenarios
	}
	return batch.NewFromState(s.State, scns, opt)
}

// slabRef binds one section id to one State slab; exactly one of the
// pointers is set. The same table drives encode and decode, so the two sides
// cannot drift.
type slabRef struct {
	id  uint32
	f64 *[]float64
	i32 *[]int32
	u8  *[]uint8
}

// stateSlabs enumerates every slab section of the format, in file order.
// Appending new entries (fresh ids) is a compatible change — old readers
// skip them; reusing or renumbering ids requires a Version bump.
func stateSlabs(st *core.State) []slabRef {
	return []slabRef{
		{id: 16, i32: &st.FaninStart},
		{id: 17, i32: &st.FaninArc},
		{id: 18, i32: &st.FaninFrom},
		{id: 19, u8: &st.FaninSense},
		{id: 20, f64: &st.ArcMean[0]},
		{id: 21, f64: &st.ArcMean[1]},
		{id: 22, f64: &st.ArcStd[0]},
		{id: 23, f64: &st.ArcStd[1]},
		{id: 24, u8: &st.ArcKind},
		{id: 25, i32: &st.ArcCell},
		{id: 26, i32: &st.ArcNet},
		{id: 27, i32: &st.ArcFrom},
		{id: 28, i32: &st.ArcTo},
		{id: 29, i32: &st.LvLevel},
		{id: 30, i32: &st.LvOrder},
		{id: 31, i32: &st.LvLevelStart},
		{id: 32, i32: &st.SpPin},
		{id: 33, i32: &st.SpNode},
		{id: 34, f64: &st.SpMean},
		{id: 35, f64: &st.SpStd},
		{id: 36, i32: &st.SpOfPin},
		{id: 37, i32: &st.EpPin},
		{id: 38, i32: &st.EpNode},
		{id: 39, f64: &st.EpBase[0]},
		{id: 40, f64: &st.EpBase[1]},
		{id: 41, f64: &st.EpHold[0]},
		{id: 42, f64: &st.EpHold[1]},
		{id: 43, i32: &st.EpOfPin},
		{id: 44, i32: &st.ClkParent},
		{id: 45, f64: &st.ClkCumVar},
		{id: 46, i32: &st.ClkDepth},
		{id: 47, i32: &st.ExcSP},
		{id: 48, i32: &st.ExcEP},
		{id: 49, u8: &st.ExcKind},
		{id: 50, i32: &st.ExcCycles},
		{id: 51, i32: &st.FoStart},
		{id: 52, i32: &st.FoAdj},
		{id: 53, i32: &st.FoArc},
	}
}

// appendSection appends one [id | byteLen | payload] frame.
func appendSection(dst []byte, id uint32, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, id)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// appendString appends a u32-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// Encode serializes the compiled state (plus an optional scenario list and
// cache key) into the snapshot byte format.
func Encode(st *core.State, scns []batch.Scenario, key string) []byte {
	return EncodeExtra(st, scns, key, nil)
}

// EncodeExtra is Encode plus opaque extra sections, framed canonically after
// the scenario section and before the state slabs — the position Decode
// captures them from, so Decode→EncodeExtra round-trips a canonical file
// byte-identically even when this reader has no schema for those sections.
func EncodeExtra(st *core.State, scns []batch.Scenario, key string, extra []ExtraSection) []byte {
	slabs := stateSlabs(st)

	// Meta section.
	var meta []byte
	meta = binary.LittleEndian.AppendUint64(meta, uint64(st.NumPins))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(st.NumLevels))
	meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(st.Period))
	meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(st.NSigma))
	meta = appendString(meta, st.Design)
	meta = appendString(meta, key)

	nSections := 1 + len(slabs) + len(extra)
	if len(scns) > 0 {
		nSections++
	}

	// Size the buffer exactly: header + framed sections + trailing crc.
	size := headerLen + 12 + len(meta) + 4
	if len(scns) > 0 {
		size += 12 + 4
		for _, s := range scns {
			size += 4 + len(s.Name) + 3*8
		}
	}
	for _, ex := range extra {
		size += 12 + len(ex.Payload)
	}
	for _, sl := range slabs {
		size += 12
		switch {
		case sl.f64 != nil:
			size += len(*sl.f64) * 8
		case sl.i32 != nil:
			size += len(*sl.i32) * 4
		default:
			size += len(*sl.u8)
		}
	}

	buf := make([]byte, 0, size)
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nSections))
	buf = appendSection(buf, secMeta, meta)
	if len(scns) > 0 {
		var sb []byte
		sb = binary.LittleEndian.AppendUint32(sb, uint32(len(scns)))
		for _, s := range scns {
			sb = appendString(sb, s.Name)
			sb = binary.LittleEndian.AppendUint64(sb, math.Float64bits(s.DelayScale))
			sb = binary.LittleEndian.AppendUint64(sb, math.Float64bits(s.SigmaScale))
			sb = binary.LittleEndian.AppendUint64(sb, math.Float64bits(s.RCScale))
		}
		buf = appendSection(buf, secScenarios, sb)
	}
	for _, ex := range extra {
		buf = appendSection(buf, ex.ID, ex.Payload)
	}
	for _, sl := range slabs {
		hdr := len(buf)
		buf = binary.LittleEndian.AppendUint32(buf, sl.id)
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
		switch {
		case sl.f64 != nil:
			buf = appendF64s(buf, *sl.f64)
		case sl.i32 != nil:
			buf = appendI32s(buf, *sl.i32)
		default:
			buf = append(buf, *sl.u8...)
		}
		binary.LittleEndian.PutUint64(buf[hdr+4:], uint64(len(buf)-hdr-12))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	return buf
}

// Write serializes st (plus optional scenarios and cache key) to w,
// returning the byte count.
func Write(w io.Writer, st *core.State, scns []batch.Scenario, key string) (int64, error) {
	n, err := w.Write(Encode(st, scns, key))
	return int64(n), err
}

// readString consumes a u32-length-prefixed string from b, returning the
// remainder.
func readString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, corruptf("truncated string")
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(n) > uint64(len(b)) {
		return "", nil, corruptf("string length %d exceeds section", n)
	}
	return string(b[:n]), b[n:], nil
}

// Decode parses a snapshot buffer. Every failure is a *CorruptError
// (matching ErrCorrupt); the decoded state passed core.State.Validate, so
// it is safe to hand to the engine constructors.
func Decode(buf []byte) (*Snapshot, error) {
	if len(buf) < headerLen+4 {
		return nil, corruptf("short file: %d bytes", len(buf))
	}
	if string(buf[:8]) != Magic {
		return nil, corruptf("bad magic %q", buf[:8])
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != Version {
		return nil, corruptf("unsupported version %d (want %d)", v, Version)
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(tail); got != want {
		return nil, corruptf("checksum mismatch: computed %08x, stored %08x", got, want)
	}

	snap := &Snapshot{State: &core.State{}, Bytes: int64(len(buf))}
	st := snap.State
	byID := make(map[uint32]slabRef)
	for _, sl := range stateSlabs(st) {
		byID[sl.id] = sl
	}

	nSections := binary.LittleEndian.Uint32(buf[12:])
	off := headerLen
	metaSeen := false
	for i := uint32(0); i < nSections; i++ {
		if off+12 > len(body) {
			return nil, corruptf("truncated section header (%d of %d)", i, nSections)
		}
		id := binary.LittleEndian.Uint32(body[off:])
		blen := binary.LittleEndian.Uint64(body[off+4:])
		off += 12
		if blen > uint64(len(body)-off) {
			return nil, corruptf("section %d length %d exceeds file", id, blen)
		}
		payload := body[off : off+int(blen)]
		off += int(blen)

		switch {
		case id == secMeta:
			if len(payload) < 32 {
				return nil, corruptf("meta section too short: %d bytes", len(payload))
			}
			st.NumPins = int(int64(binary.LittleEndian.Uint64(payload)))
			st.NumLevels = int(int64(binary.LittleEndian.Uint64(payload[8:])))
			st.Period = math.Float64frombits(binary.LittleEndian.Uint64(payload[16:]))
			st.NSigma = math.Float64frombits(binary.LittleEndian.Uint64(payload[24:]))
			rest := payload[32:]
			var err error
			if st.Design, rest, err = readString(rest); err != nil {
				return nil, err
			}
			if snap.Key, _, err = readString(rest); err != nil {
				return nil, err
			}
			metaSeen = true
		case id == secScenarios:
			if len(payload) < 4 {
				return nil, corruptf("scenario section too short")
			}
			n := binary.LittleEndian.Uint32(payload)
			rest := payload[4:]
			for j := uint32(0); j < n; j++ {
				var s batch.Scenario
				var err error
				if s.Name, rest, err = readString(rest); err != nil {
					return nil, err
				}
				if len(rest) < 24 {
					return nil, corruptf("truncated scenario %d", j)
				}
				s.DelayScale = math.Float64frombits(binary.LittleEndian.Uint64(rest))
				s.SigmaScale = math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))
				s.RCScale = math.Float64frombits(binary.LittleEndian.Uint64(rest[16:]))
				rest = rest[24:]
				snap.Scenarios = append(snap.Scenarios, s)
			}
		default:
			sl, ok := byID[id]
			if !ok {
				// Unknown section: written by a newer minor revision (or a
				// structured id this reader has no schema for, like
				// SecBlockModel). Carried through opaquely instead of
				// dropped, so re-encoding preserves it.
				snap.Extra = append(snap.Extra, ExtraSection{
					ID: id, Payload: append([]byte(nil), payload...),
				})
				continue
			}
			switch {
			case sl.f64 != nil:
				if blen%8 != 0 {
					return nil, corruptf("section %d length %d not a float64 slab", id, blen)
				}
				*sl.f64 = decodeF64s(payload)
			case sl.i32 != nil:
				if blen%4 != 0 {
					return nil, corruptf("section %d length %d not an int32 slab", id, blen)
				}
				*sl.i32 = decodeI32s(payload)
			default:
				out := make([]uint8, len(payload))
				copy(out, payload)
				*sl.u8 = out
			}
		}
	}
	if off != len(body) {
		return nil, corruptf("%d trailing bytes after last section", len(body)-off)
	}
	if !metaSeen {
		return nil, corruptf("missing meta section")
	}
	// Second line of defense behind the checksum: a forged-but-checksummed
	// state must still be structurally sound before a kernel sees it.
	if err := st.Validate(); err != nil {
		return nil, corruptf("state validation: %v", err)
	}
	return snap, nil
}

// Read decodes a snapshot from r (reading it fully).
func Read(r io.Reader) (*Snapshot, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(buf)
}

// Open reads and decodes the snapshot at path. Integrity failures match
// ErrCorrupt; a missing file surfaces as the usual *PathError.
func Open(path string) (*Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(buf)
}
