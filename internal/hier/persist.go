// Block-model persistence: a BlockModel serializes to one SecBlockModel
// section inside an ordinary internal/snap container (versioned, CRC'd, and
// skipped cleanly by readers that predate the section id), stored in a
// snap.Cache under a key derived from the source state's content hash — so
// editing a block invalidates exactly its own model and re-extracting an
// unchanged block is a cache hit.
package hier

import (
	"encoding/binary"
	"fmt"
	"math"

	"insta/internal/core"
	"insta/internal/snap"
)

// modelVersion is the SecBlockModel payload layout version.
const modelVersion = 1

// modelKey is the cache key a model with the given source hash lives under.
func modelKey(hash string) string { return "hiermodel-" + hash }

// EncodeModel serializes a block model into the SecBlockModel payload layout
// (little-endian, u32-length-prefixed strings, fixed-width slabs whose
// lengths are implied by the boundary dimensions).
func EncodeModel(m *BlockModel) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint16(b, modelVersion)
	b = appendModelString(b, m.Design)
	b = appendModelString(b, m.Hash)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Period))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.NSigma))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.TopK))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.SourcePins))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.SourceArcs))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Ins)))
	for _, in := range m.Ins {
		b = binary.LittleEndian.AppendUint32(b, uint32(in.Pin))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(in.Mean))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(in.Std))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Outs)))
	for _, p := range m.Outs {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.EpPin)))
	for _, p := range m.EpPin {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
	}
	for _, v := range m.OutReq {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.PortExc)))
	for _, pe := range m.PortExc {
		b = binary.LittleEndian.AppendUint32(b, uint32(pe.In))
		b = binary.LittleEndian.AppendUint32(b, uint32(pe.Out))
		flag := byte(0)
		if pe.False {
			flag = 1
		}
		b = append(b, flag)
		b = binary.LittleEndian.AppendUint32(b, uint32(pe.Cycles))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Scen)))
	for si := range m.Scen {
		s := &m.Scen[si]
		b = appendModelString(b, s.Scenario.Name)
		for _, v := range []float64{s.Scenario.DelayScale, s.Scenario.SigmaScale, s.Scenario.RCScale} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		for _, slab := range [][]float64{
			s.ThruMean, s.ThruStd,
			s.ConsMean, s.ConsStd, s.ConsReq,
			s.ConsRawMean, s.ConsRawStd, s.ConsRawReq,
			s.LaunchMean, s.LaunchStd,
			s.IntSlack,
		} {
			for _, v := range slab {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.WNSInt))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.TNSInt))
	}
	return b
}

func appendModelString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// modelCursor is a bounds-checked reader over a SecBlockModel payload; every
// overrun surfaces as an error, never a panic, so DecodeModel is safe on
// arbitrary bytes.
type modelCursor struct {
	b   []byte
	err error
}

func (c *modelCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("hier: bad block model: "+format, args...)
	}
}

func (c *modelCursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b) {
		c.fail("need %d bytes, have %d", n, len(c.b))
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *modelCursor) u16() uint16 {
	if b := c.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (c *modelCursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *modelCursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *modelCursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *modelCursor) str() string {
	n := c.u32()
	if uint64(n) > uint64(len(c.b)) {
		c.fail("string length %d exceeds payload", n)
		return ""
	}
	return string(c.take(int(n)))
}

// count reads an element count and sanity-checks it against the bytes left
// (each element consumes at least min bytes), so a forged header cannot
// trigger a huge allocation.
func (c *modelCursor) count(min int) int {
	n := c.u32()
	if c.err == nil && uint64(n)*uint64(min) > uint64(len(c.b)) {
		c.fail("count %d exceeds remaining payload", n)
	}
	if c.err != nil {
		return 0
	}
	return int(n)
}

func (c *modelCursor) f64slab(n int) []float64 {
	if c.err != nil {
		return nil
	}
	if n*8 > len(c.b) {
		c.fail("slab of %d floats exceeds remaining payload", n)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = c.f64()
	}
	return out
}

// pin fails unless p is a pin id of a source block with pins pins.
func (c *modelCursor) pin(what string, p int32, pins int) {
	if c.err == nil && (p < 0 || int(p) >= pins) {
		c.fail("%s pin %d outside [0,%d)", what, p, pins)
	}
}

// DecodeModel parses a SecBlockModel payload. Beyond the layout it checks
// what a composition would index with: every boundary and endpoint pin lies
// in the source block, every port exception names an existing input and
// output, its flag byte is 0 or 1 and its cycle count is not negative — so
// anything it accepts re-encodes to the same bytes.
func DecodeModel(payload []byte) (*BlockModel, error) {
	c := &modelCursor{b: payload}
	if v := c.u16(); c.err == nil && v != modelVersion {
		return nil, fmt.Errorf("hier: block model version %d (want %d)", v, modelVersion)
	}
	m := &BlockModel{
		Design:     c.str(),
		Hash:       c.str(),
		Period:     c.f64(),
		NSigma:     c.f64(),
		TopK:       int(c.u32()),
		SourcePins: int(c.u64()),
		SourceArcs: int(c.u64()),
	}
	nI := c.count(20)
	for i := 0; i < nI && c.err == nil; i++ {
		in := InPin{Pin: int32(c.u32()), Mean: c.f64(), Std: c.f64()}
		c.pin("input", in.Pin, m.SourcePins)
		m.Ins = append(m.Ins, in)
	}
	nO := c.count(4)
	for i := 0; i < nO && c.err == nil; i++ {
		p := int32(c.u32())
		c.pin("output", p, m.SourcePins)
		m.Outs = append(m.Outs, p)
	}
	nEP := c.count(4)
	for i := 0; i < nEP && c.err == nil; i++ {
		p := int32(c.u32())
		c.pin("endpoint", p, m.SourcePins)
		m.EpPin = append(m.EpPin, p)
	}
	m.OutReq = c.f64slab(nO * 2)
	nPE := c.count(13)
	for i := 0; i < nPE && c.err == nil; i++ {
		pe := PortExc{In: int32(c.u32()), Out: int32(c.u32())}
		flag := c.take(1)
		pe.Cycles = int32(c.u32())
		switch {
		case c.err != nil:
		case flag[0] > 1:
			c.fail("port exception %d flag byte %d (want 0 or 1)", i, flag[0])
		case pe.In < 0 || int(pe.In) >= nI || pe.Out < 0 || int(pe.Out) >= nO:
			c.fail("port exception %d names input %d of %d, output %d of %d", i, pe.In, nI, pe.Out, nO)
		case pe.Cycles < 0:
			c.fail("port exception %d has %d cycles", i, pe.Cycles)
		default:
			pe.False = flag[0] == 1
			m.PortExc = append(m.PortExc, pe)
		}
	}
	// Each scenario's fixed-width body alone needs this many bytes, which
	// bounds the count a forged header can claim.
	perScen := 4 + 3*8 + 8*(8*nI*nO+12*nI+4*nO+nEP+2)
	nScen := c.count(perScen)
	for si := 0; si < nScen && c.err == nil; si++ {
		s := ScenarioModel{Scenario: core.Scenario{
			Name: c.str(),
		}}
		s.Scenario.DelayScale = c.f64()
		s.Scenario.SigmaScale = c.f64()
		s.Scenario.RCScale = c.f64()
		s.ThruMean = c.f64slab(nI * nO * 4)
		s.ThruStd = c.f64slab(nI * nO * 4)
		s.ConsMean = c.f64slab(nI * 2)
		s.ConsStd = c.f64slab(nI * 2)
		s.ConsReq = c.f64slab(nI * 2)
		s.ConsRawMean = c.f64slab(nI * 2)
		s.ConsRawStd = c.f64slab(nI * 2)
		s.ConsRawReq = c.f64slab(nI * 2)
		s.LaunchMean = c.f64slab(nO * 2)
		s.LaunchStd = c.f64slab(nO * 2)
		s.IntSlack = c.f64slab(nEP)
		s.WNSInt = c.f64()
		s.TNSInt = c.f64()
		if c.err == nil {
			m.Scen = append(m.Scen, s)
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if len(c.b) != 0 {
		return nil, fmt.Errorf("hier: bad block model: %d trailing bytes", len(c.b))
	}
	return m, nil
}

// SaveModel stores the model in the snapshot cache under its content-hash
// key, wrapped in a minimal snap container (so the file carries the format's
// magic, version, and CRC, and readers without the section id skip it
// cleanly).
func SaveModel(c *snap.Cache, m *BlockModel) (string, error) {
	key := modelKey(m.Hash)
	path, _, err := c.StoreBytes(key, ModelContainer(m))
	return path, err
}

// ModelContainer wraps a model in its standalone snap container — what
// SaveModel stores and what insta-extract -block-model writes to disk.
func ModelContainer(m *BlockModel) []byte {
	return snap.EncodeExtra(&core.State{Design: m.Design}, nil, modelKey(m.Hash),
		[]snap.ExtraSection{{ID: snap.SecBlockModel, Payload: EncodeModel(m)}})
}

// LoadModel fetches the model extracted from a source state with the given
// content hash; (nil, nil) is a clean miss. A cached file whose payload
// doesn't decode to a model with the requested hash is an error (matching
// what it is: a corrupt or mis-keyed entry).
func LoadModel(c *snap.Cache, hash string) (*BlockModel, error) {
	s, err := c.Load(modelKey(hash))
	if err != nil || s == nil {
		return nil, err
	}
	for _, ex := range s.Extra {
		if ex.ID != snap.SecBlockModel {
			continue
		}
		m, err := DecodeModel(ex.Payload)
		if err != nil {
			return nil, err
		}
		if m.Hash != hash {
			return nil, fmt.Errorf("hier: cached model hash %.12s… does not match requested %.12s…", m.Hash, hash)
		}
		return m, nil
	}
	return nil, fmt.Errorf("hier: cache entry %s has no block-model section", modelKey(hash))
}
