package tensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"unsafe"
)

// Serialization format (little-endian):
//
//	u8   dtype
//	u32  rank
//	u32 × rank  dims
//	payload: raw element bytes (numeric/bool) or length-prefixed strings
//
// The same encoding is used by the checkpoint files (internal/checkpoint)
// and the inter-task transport (internal/distributed), so a tensor that
// round-trips through either path is bit-identical.

// WriteTo encodes the tensor to w and returns the number of bytes written.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	buf, err := t.encode()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// encode returns the tensor's encoding.
func (t *Tensor) encode() ([]byte, error) {
	le := binary.LittleEndian
	buf := append(make([]byte, 0, 5+4*len(t.shape)), byte(t.dtype))
	buf = le.AppendUint32(buf, uint32(len(t.shape)))
	for _, d := range t.shape {
		buf = le.AppendUint32(buf, uint32(d))
	}
	switch t.dtype {
	case Bool, Int32, Int64, Float32, Float64:
		if littleEndianHost {
			return append(buf, rawPayload(t)...), nil
		}
		return binary.Append(buf, le, t.buf)
	case String:
		for _, s := range t.Strings() {
			buf = le.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
		return buf, nil
	}
	return nil, fmt.Errorf("tensor: cannot serialize dtype %v", t.dtype)
}

// ReadFrom decodes a tensor previously written by WriteTo. The header is
// untrusted: a shape whose element count overflows, or that claims more
// payload than the stream holds, is an error, and the decoder never
// allocates for bytes that are not there.
func ReadFrom(r io.Reader) (*Tensor, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	dt := DType(hdr[0])
	switch dt {
	case Bool, Int32, Int64, Float32, Float64, String:
	default:
		return nil, fmt.Errorf("tensor: cannot deserialize dtype %d", hdr[0])
	}
	rank := int(binary.LittleEndian.Uint32(hdr[1:]))
	if rank > 32 {
		return nil, fmt.Errorf("tensor: implausible rank %d in stream", rank)
	}
	shape := make(Shape, rank)
	if rank > 0 {
		dims, err := readN(r, 4*rank)
		if err != nil {
			return nil, err
		}
		for i := range shape {
			shape[i] = int(binary.LittleEndian.Uint32(dims[4*i:]))
		}
	}
	cnt, ok := checkedCount(shape)
	if !ok || cnt > math.MaxInt/dt.Size() {
		return nil, fmt.Errorf("tensor: shape %v in stream is too large", shape)
	}
	if dt == String {
		return readStrings(r, shape, cnt)
	}
	payload, err := readN(r, cnt*dt.Size())
	if err != nil {
		return nil, fmt.Errorf("tensor: reading %v%v payload: %w", dt, shape, err)
	}
	// WriteTo writes a bool as 0 or 1; any other byte is corrupt rather
	// than true, so an accepted encoding re-encodes to the same bytes.
	if dt == Bool {
		for _, c := range payload {
			if c > 1 {
				return nil, fmt.Errorf("tensor: bool payload byte %d is not 0 or 1", c)
			}
		}
	}
	t := New(dt, shape)
	if littleEndianHost {
		copy(rawPayload(t), payload)
	} else if _, err := binary.Decode(payload, binary.LittleEndian, t.buf); err != nil {
		return nil, err
	}
	return t, nil
}

// littleEndianHost selects the raw copy below for bool and numeric
// payloads; a big-endian host converts each element through
// encoding/binary instead.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// rawPayload views a bool or numeric tensor's buffer as its bytes in
// memory. Go stores a bool as one byte, 0 or 1, so on a little-endian host
// these are exactly the wire format's payload bytes, and encoding or
// decoding is one copy. (encoding/binary converts element by element
// through its ByteOrder interface: encoding a 6.4 MB float32 tensor took
// 7.3 ms that way, 4.3 ms with a hand-written loop per dtype and 0.8 ms
// with this copy, on a 2-vCPU amd64 VM.)
func rawPayload(t *Tensor) []byte {
	return unsafe.Slice((*byte)(reflect.ValueOf(t.buf).UnsafePointer()), t.NumElements()*t.dtype.Size())
}

// readStrings decodes cnt length-prefixed strings. The result grows as
// strings arrive rather than being sized from the untrusted count.
func readStrings(r io.Reader, shape Shape, cnt int) (*Tensor, error) {
	strs := make([]string, 0, min(cnt, 1024))
	for len(strs) < cnt {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return nil, err
		}
		sb, err := readN(r, int(binary.LittleEndian.Uint32(lenBuf[:])))
		if err != nil {
			return nil, err
		}
		strs = append(strs, string(sb))
	}
	return &Tensor{dtype: String, shape: shape, buf: strs}, nil
}

// checkedCount is Shape.NumElements for an untrusted shape: ok is false
// if a dimension is negative or the product overflows int.
func checkedCount(shape Shape) (n int, ok bool) {
	n = 1
	for _, d := range shape {
		if d == 0 {
			return 0, true
		}
	}
	for _, d := range shape {
		if d < 0 || n > math.MaxInt/d {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// readN reads exactly n bytes from r without trusting n. A reader that
// reports its remaining length (the *bytes.Reader behind GobDecode) is
// checked against it before the buffer is made; any other reader is copied
// into a buffer that grows only as bytes arrive.
func readN(r io.Reader, n int) ([]byte, error) {
	if lr, ok := r.(interface{ Len() int }); ok {
		if n > lr.Len() {
			return nil, io.ErrUnexpectedEOF
		}
		buf := make([]byte, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	var buf bytes.Buffer
	if m, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF && m > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}
