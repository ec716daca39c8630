// Package binstate is the fixed little-endian layout the Figure 5
// applications (app.wave, app.comd) use for their checkpointed state:
// every integer and float64 is 8 bytes, and a slice is its element count
// followed by its elements. Floats travel as their IEEE-754 bits, so -0,
// NaN payloads and infinities restore bit for bit.
//
// core serializes a program through encoding.BinaryMarshaler when it
// implements the pair; both applications build their MarshalBinary and
// UnmarshalBinary from a Writer and a Reader here.
package binstate

import (
	"encoding/binary"
	"fmt"
	"math"
)

var le = binary.LittleEndian

// Writer appends values to one buffer sized up front.
type Writer struct{ buf []byte }

// NewWriter returns a writer whose buffer holds size bytes without
// growing.
func NewWriter(size int) *Writer { return &Writer{buf: make([]byte, 0, size)} }

func (w *Writer) u64(v uint64) { w.buf = le.AppendUint64(w.buf, v) }

// Int appends v as 8 bytes.
func (w *Writer) Int(v int) { w.u64(uint64(v)) }

// Int64 appends v as 8 bytes.
func (w *Writer) Int64(v int64) { w.u64(uint64(v)) }

// Float64 appends v's IEEE-754 bits.
func (w *Writer) Float64(v float64) { w.u64(math.Float64bits(v)) }

// Float64s appends len(vs) and then every element.
func (w *Writer) Float64s(vs []float64) {
	w.Int(len(vs))
	for _, v := range vs {
		w.Float64(v)
	}
}

// Bytes returns the encoded state.
func (w *Writer) Bytes() []byte { return w.buf }

// Reader consumes a Writer's output. The first short read sticks: later
// reads return zeros and Done reports it.
type Reader struct {
	raw []byte
	err error
}

// NewReader reads raw; values never alias it.
func NewReader(raw []byte) *Reader { return &Reader{raw: raw} }

func (r *Reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.raw) < 8 {
		r.err = fmt.Errorf("binstate: truncated: need 8 bytes, have %d", len(r.raw))
		return 0
	}
	v := le.Uint64(r.raw)
	r.raw = r.raw[8:]
	return v
}

// Int reads an Int.
func (r *Reader) Int() int { return int(r.u64()) }

// Int64 reads an Int64.
func (r *Reader) Int64() int64 { return int64(r.u64()) }

// Float64 reads a Float64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.u64()) }

// Len reads a slice's element count and checks that count elements of
// elemSize bytes remain, so a damaged count cannot force a huge
// allocation.
func (r *Reader) Len(elemSize int) int {
	n := r.u64()
	if r.err == nil && n > uint64(len(r.raw)/elemSize) {
		r.err = fmt.Errorf("binstate: truncated: %d elements of %d bytes, have %d bytes", n, elemSize, len(r.raw))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Float64s reads a Float64s slice; an empty one reads as nil, as gob
// leaves a fresh instance's slice.
func (r *Reader) Float64s() []float64 {
	n := r.Len(8)
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.Float64()
	}
	return vs
}

// Done returns the first read error, or an error if bytes remain.
func (r *Reader) Done() error {
	if r.err == nil && len(r.raw) != 0 {
		r.err = fmt.Errorf("binstate: %d trailing bytes", len(r.raw))
	}
	return r.err
}
