package snap

// Slab codec: the snapshot body is a sequence of length-prefixed
// little-endian slabs, one per structure-of-arrays field of the compiled
// state. On little-endian hosts (every platform this repo targets) a slab
// encodes and decodes as a single memcpy through a byte view of the backing
// array — no per-element loop, which is what keeps Decode allocation-lean
// and dominated by the file read. Big-endian hosts fall through to a
// per-element encoding/binary path producing byte-identical files.

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// hostLittle reports the native byte order, probed once at init.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// f64Bytes aliases the float64 slab as bytes (native order, no copy).
func f64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// i32Bytes aliases the int32 slab as bytes (native order, no copy).
func i32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// appendF64s appends the slab little-endian.
func appendF64s(dst []byte, s []float64) []byte {
	if hostLittle {
		return append(dst, f64Bytes(s)...)
	}
	for _, v := range s {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// appendI32s appends the slab little-endian.
func appendI32s(dst []byte, s []int32) []byte {
	if hostLittle {
		return append(dst, i32Bytes(s)...)
	}
	for _, v := range s {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// decodeF64s decodes a little-endian float64 slab: one allocation plus one
// copy on little-endian hosts.
func decodeF64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	if hostLittle {
		copy(f64Bytes(out), b)
		return out
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// decodeI32s decodes a little-endian int32 slab.
func decodeI32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	if hostLittle {
		copy(i32Bytes(out), b)
		return out
	}
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}
