package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// U64s is a wire vector of uint64 values: PSI and count outputs,
// Shamir shares, selector shares and delta positions. It gob-encodes as
// a packed block — one width byte, then every element as that many
// little-endian bytes — instead of gob's per-element varints, so
// encoding and decoding a vector are plain copy loops. The width
// is the narrowest of 1, 2, 4 or 8 bytes that holds the largest
// element: δ-residue shares take 1 byte each, PSI outputs below η′
// take 2, and 61-bit Shamir shares take 8 — for each of these value
// ranges no more than gob's varints averaged.
//
// A nil vector is omitted from its struct on the wire (gob skips zero
// fields) and decodes as nil; an empty non-nil vector also decodes as
// nil, as it did under plain gob.
type U64s []uint64

// U16s is a wire vector of uint16 values (additive χ shares, PSU
// replies, fpos vectors), packed the same way as U64s at width 1 or 2.
type U16s []uint16

// packWidth returns the narrowest supported element width, in bytes,
// that holds every value whose bits are a subset of or.
func packWidth(or uint64) int {
	switch n := bits.Len64(or); {
	case n <= 8:
		return 1
	case n <= 16:
		return 2
	case n <= 32:
		return 4
	}
	return 8
}

// GobEncode packs v as a width byte followed by little-endian elements.
func (v U64s) GobEncode() ([]byte, error) { return pack(v), nil }

// GobDecode unpacks a block written by GobEncode. A malformed header
// or a body that is not a whole number of elements is an error.
func (v *U64s) GobDecode(b []byte) (err error) {
	*v, err = unpack[uint64](b, 8)
	return err
}

// GobEncode packs v as a width byte followed by little-endian elements.
func (v U16s) GobEncode() ([]byte, error) { return pack(v), nil }

// GobDecode unpacks a block written by GobEncode. Widths above 2 bytes
// cannot come from a uint16 vector and are rejected.
func (v *U16s) GobDecode(b []byte) (err error) {
	*v, err = unpack[uint16](b, 2)
	return err
}

func pack[T uint16 | uint64](v []T) []byte {
	var or T
	for _, x := range v {
		or |= x
	}
	w := packWidth(uint64(or))
	b := make([]byte, 1+w*len(v))
	b[0] = byte(w)
	p := b[1:]
	switch w {
	case 1:
		for i, x := range v {
			p[i] = byte(x)
		}
	case 2:
		for i, x := range v {
			binary.LittleEndian.PutUint16(p[2*i:], uint16(x))
		}
	case 4:
		for i, x := range v {
			binary.LittleEndian.PutUint32(p[4*i:], uint32(x))
		}
	default:
		for i, x := range v {
			binary.LittleEndian.PutUint64(p[8*i:], uint64(x))
		}
	}
	return b
}

// unpack decodes a packed block into elements of maxWidth bytes. It
// rejects an empty block, a width other than 1, 2, 4 or 8, a width
// above maxWidth and a body that is not a whole number of elements. A
// block with no elements decodes as nil.
func unpack[T uint16 | uint64](b []byte, maxWidth int) ([]T, error) {
	if len(b) == 0 {
		return nil, errors.New("protocol: packed vector: empty payload")
	}
	w, p := int(b[0]), b[1:]
	switch w {
	case 1, 2, 4, 8:
	default:
		return nil, fmt.Errorf("protocol: packed vector: invalid width %d", w)
	}
	if w > maxWidth {
		return nil, fmt.Errorf("protocol: packed vector: width %d exceeds %d-byte elements", w, maxWidth)
	}
	if len(p)%w != 0 {
		return nil, fmt.Errorf("protocol: packed vector: %d body bytes not a multiple of width %d", len(p), w)
	}
	if len(p) == 0 {
		return nil, nil
	}
	out := make([]T, len(p)/w)
	switch w {
	case 1:
		for i := range out {
			out[i] = T(p[i])
		}
	case 2:
		for i := range out {
			out[i] = T(binary.LittleEndian.Uint16(p[2*i:]))
		}
	case 4:
		for i := range out {
			out[i] = T(binary.LittleEndian.Uint32(p[4*i:]))
		}
	default:
		for i := range out {
			out[i] = T(binary.LittleEndian.Uint64(p[8*i:]))
		}
	}
	return out, nil
}
