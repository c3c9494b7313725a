// Package wire provides the low-level binary primitives the snapshot pack
// format is built from: an append-only, chunked Writer and a bounds-checked,
// sticky-error Reader over explicit little-endian fields, length-prefixed
// strings and raw numeric slabs.
//
// The Reader is designed to face hostile bytes (the pack decoder is a fuzz
// target): every read is bounds-checked, a failure poisons the reader so
// callers can decode whole structures and check Err once at the end, and
// every pre-allocation is capped by the number of bytes actually remaining
// in the input — a hostile length prefix can never make the decoder
// allocate more memory than the input it was handed.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Writer accumulates an encoded byte stream in chunks. A chunk, once full,
// is never copied or grown: the next field starts a new one, so a stream of
// any length costs its bytes, the unused tail of its last chunk and at most
// seven bytes per chunk a fixed-width field did not fit in. Chunks start
// small and double up to maxChunk, so a short stream — one log frame —
// costs little more than itself. The zero value is ready to use.
type Writer struct {
	full [][]byte // the filled chunks, in order
	cur  []byte   // the chunk being filled
	n    int      // bytes in full
	// spare holds the chunks of the streams before the last Reset; a new
	// chunk is spare[next] while there is one.
	spare [][]byte
	next  int
}

// The first chunk's capacity and the largest any chunk grows to.
const minChunk, maxChunk = 64, 64 << 10

// space returns the chunk being filled with room for n more bytes (n ≤
// minChunk), sealing it and starting the next when it has less.
func (w *Writer) space(n int) []byte {
	if cap(w.cur)-len(w.cur) >= n {
		return w.cur
	}
	size := minChunk
	if c := cap(w.cur); c > 0 {
		w.full = append(w.full, w.cur)
		w.n += len(w.cur)
		size = min(2*c, maxChunk)
	}
	if w.next < len(w.spare) {
		w.cur, w.next = w.spare[w.next][:0], w.next+1
		return w.cur
	}
	w.cur = make([]byte, 0, size)
	return w.cur
}

// Reset empties the stream and keeps its chunks, which the next stream
// fills again in the same order: a writer used for one stream after another
// allocates only when it writes more than it ever has. What Bytes returned
// before is overwritten.
func (w *Writer) Reset() {
	if cap(w.cur) > 0 {
		w.full = append(w.full, w.cur)
	}
	if len(w.full) > len(w.spare) { // it grew past the chunks it had
		w.spare = append(w.spare[:0], w.full...)
	}
	w.full, w.cur, w.n, w.next = w.full[:0], nil, 0, 0
}

// appendBytes copies b onto the stream, spilling into new chunks as each
// fills.
func appendBytes[T string | []byte](w *Writer, b T) {
	for len(b) > 0 {
		c := w.space(1)
		k := copy(c[len(c):cap(c)], b)
		w.cur, b = c[:len(c)+k], b[k:]
	}
}

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return w.n + len(w.cur) }

// Bytes returns the stream as one slice: the only chunk itself when there
// is one, else the chunks joined into one exactly sized copy.
func (w *Writer) Bytes() []byte {
	if len(w.full) == 0 {
		return w.cur
	}
	return w.AppendTo(make([]byte, 0, w.Len()))
}

// AppendTo appends the stream to dst and returns the result.
func (w *Writer) AppendTo(dst []byte) []byte {
	for _, c := range w.full {
		dst = append(dst, c...)
	}
	return append(dst, w.cur...)
}

// WriteTo writes the stream to dst chunk by chunk, joining nothing.
func (w *Writer) WriteTo(dst io.Writer) (int64, error) {
	var total int64
	for _, c := range w.full {
		k, err := dst.Write(c)
		total += int64(k)
		if err != nil {
			return total, err
		}
	}
	k, err := dst.Write(w.cur)
	return total + int64(k), err
}

// CRC32 returns the CRC-32 (IEEE) of the bytes written since offset from.
func (w *Writer) CRC32(from int) uint32 {
	var crc uint32
	off := 0
	sum := func(c []byte) {
		if off+len(c) > from {
			crc = crc32.Update(crc, crc32.IEEETable, c[max(from-off, 0):])
		}
		off += len(c)
	}
	for _, c := range w.full {
		sum(c)
	}
	sum(w.cur)
	return crc
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.cur = append(w.space(1), v) }

// Raw appends bytes verbatim.
func (w *Writer) Raw(b []byte) { appendBytes(w, b) }

// Bool appends a boolean as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) {
	w.cur = binary.LittleEndian.AppendUint16(w.space(2), v)
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.cur = binary.LittleEndian.AppendUint32(w.space(4), v)
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.cur = binary.LittleEndian.AppendUint64(w.space(8), v)
}

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 as its raw IEEE-754 bits, little-endian.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String appends a u32 length prefix followed by the raw bytes.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	appendBytes(w, s)
}

// I32Slab appends a u32 count followed by the values as raw little-endian
// 4-byte words — the bulk-copy layout the RC trees' index arrays use.
func (w *Writer) I32Slab(vs []int32) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U32(uint32(v))
	}
}

// F64Slab appends a u32 count followed by raw little-endian float64 bits.
func (w *Writer) F64Slab(vs []float64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.F64(v)
	}
}

// Reader decodes a byte stream produced by Writer. The first failed read
// records an error and poisons the reader: every subsequent read returns a
// zero value without advancing, so decode functions can run straight-line
// and check Err once.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.pos }

// Done reports whether the input was consumed exactly, recording an error
// if trailing bytes remain.
func (r *Reader) Done() error {
	if r.err == nil && r.pos != len(r.data) {
		r.fail("trailing garbage: %d bytes after end of structure", len(r.data)-r.pos)
	}
	return r.err
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format+" at offset %d", append(args, r.pos)...)
	}
}

// take returns the next n bytes, or nil after poisoning the reader.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.pos {
		r.fail("truncated: need %d bytes, have %d", n, len(r.data)-r.pos)
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a boolean, failing on values other than 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.fail("bad bool byte %d", v)
		return false
	}
	return v == 1
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 from raw IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// count reads a u32 length prefix and validates it against the remaining
// input at elemSize bytes per element, so the caller can allocate exactly
// count elements without trusting the prefix.
func (r *Reader) count(elemSize int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(elemSize) > int64(r.Remaining()) {
		r.fail("hostile length %d (x%d bytes) exceeds %d remaining", n, elemSize, r.Remaining())
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.count(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// I32Slab reads a u32-counted slab of little-endian int32 values. The
// count is validated before allocation and the slab is taken in one bounds
// check — slab reads are the decoder's hot path.
func (r *Reader) I32Slab() []int32 {
	n := r.count(4)
	b := r.take(n * 4)
	if b == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// F64Slab reads a u32-counted slab of raw float64 bits.
func (r *Reader) F64Slab() []float64 {
	n := r.count(8)
	b := r.take(n * 8)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// Count reads a u32 element count for caller-decoded sequences, capped by
// the remaining input at minElemSize bytes per element.
func (r *Reader) Count(minElemSize int) int {
	if minElemSize < 1 {
		minElemSize = 1
	}
	return r.count(minElemSize)
}
