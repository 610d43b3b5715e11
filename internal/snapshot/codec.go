// Typed-array codecs: the bridge between the in-memory SoA slices the
// scoring kernel walks ([]float64, []int, []int32) and the little-endian
// section bytes of the file. Encoding reinterprets the slice memory
// directly on native little-endian platforms (the write copies into the
// file anyway); decoding hands out zero-copy views over the mapping when
// the rawFile allows it and the section is 8-byte aligned, falling back to
// an explicit element-by-element decode otherwise. Both paths produce
// bit-identical values — the fallback exists for portability and for the
// -no-mmap copying load, not as a different interpretation of the data.

package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"unsafe"
)

// nativeLittleEndian reports the host byte order; zero-copy section views
// require it (the format is little-endian on disk).
var nativeLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// intIs64 gates zero-copy []int views over int64 sections.
const intIs64 = strconv.IntSize == 64

// aligned8 reports whether b's backing memory is 8-byte aligned (always
// true for section starts in a mapping, re-checked per slice for safety).
func aligned8(b []byte) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%8 == 0
}

// f64Bytes returns v's bytes in file order, aliasing v's memory on native
// little-endian hosts and copying through the encoder otherwise.
func f64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	if nativeLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
	}
	out := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(x))
	}
	return out
}

// i64BytesFromInts encodes v as int64 little-endian bytes, aliasing on
// 64-bit native little-endian hosts.
func i64BytesFromInts(v []int) []byte {
	if len(v) == 0 {
		return nil
	}
	if nativeLittleEndian && intIs64 {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
	}
	out := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(int64(x)))
	}
	return out
}

// i32Bytes returns v's bytes in file order.
func i32Bytes(v []int32) []byte {
	if len(v) == 0 {
		return nil
	}
	if nativeLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
	}
	out := make([]byte, len(v)*4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(x))
	}
	return out
}

// decodeF64 decodes a float64 section; alias permits a zero-copy view.
func decodeF64(b []byte, alias bool) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: float64 section length %d not a multiple of 8", ErrCorrupt, len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	if alias && aligned8(b) {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

// decodeRows decodes a float64 matrix section into row views of dim
// values each, all over the one decoded array; alias permits that array
// to be a zero-copy view.
func decodeRows(b []byte, dim int, alias bool) ([][]float64, error) {
	flat, err := decodeF64(b, alias)
	if err != nil || len(flat) == 0 {
		return nil, err
	}
	if dim <= 0 || len(flat)%dim != 0 {
		return nil, fmt.Errorf("%w: matrix of %d values does not tile rows of %d", ErrCorrupt, len(flat), dim)
	}
	rows := make([][]float64, len(flat)/dim)
	for i := range rows {
		rows[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows, nil
}

// decodeInts decodes an int64 section into []int; alias permits a
// zero-copy view on 64-bit hosts. The copying path rejects values that do
// not fit the host int.
func decodeInts(b []byte, alias bool) ([]int, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: int64 section length %d not a multiple of 8", ErrCorrupt, len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	if alias && intIs64 && aligned8(b) {
		return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int, n)
	for i := range out {
		x := int64(binary.LittleEndian.Uint64(b[i*8:]))
		if int64(int(x)) != x {
			return nil, fmt.Errorf("%w: int64 value %d overflows host int", ErrCorrupt, x)
		}
		out[i] = int(x)
	}
	return out, nil
}

// decodeI32 decodes an int32 section; alias permits a zero-copy view.
func decodeI32(b []byte, alias bool) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: int32 section length %d not a multiple of 4", ErrCorrupt, len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return nil, nil
	}
	if alias && aligned8(b) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}
