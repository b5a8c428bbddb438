package protocol

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"prism/internal/field"
)

// TestPackedRoundTripWidths round-trips vectors whose largest element
// sits on each side of every width boundary and checks the width byte
// the encoder picked.
func TestPackedRoundTripWidths(t *testing.T) {
	cases := []struct {
		max   uint64
		width byte
	}{
		{0, 1}, {1, 1}, {255, 1},
		{256, 2}, {65535, 2},
		{65536, 4}, {math.MaxUint32, 4},
		{math.MaxUint32 + 1, 8}, {math.MaxUint64, 8},
	}
	for _, tc := range cases {
		in := U64s{0, tc.max, tc.max / 2, 1}
		b, err := in.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != tc.width {
			t.Errorf("max %d: width %d, want %d", tc.max, b[0], tc.width)
		}
		if want := 1 + len(in)*int(tc.width); len(b) != want {
			t.Errorf("max %d: %d bytes, want %d", tc.max, len(b), want)
		}
		var out U64s
		if err := out.GobDecode(b); err != nil {
			t.Fatalf("max %d: decode: %v", tc.max, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("max %d: round trip %v, want %v", tc.max, out, in)
		}

		if tc.max > math.MaxUint16 {
			continue
		}
		in16 := U16s{0, uint16(tc.max), uint16(tc.max / 2), 1}
		b16, err := in16.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if b16[0] != tc.width {
			t.Errorf("uint16 max %d: width %d, want %d", tc.max, b16[0], tc.width)
		}
		var out16 U16s
		if err := out16.GobDecode(b16); err != nil {
			t.Fatalf("uint16 max %d: decode: %v", tc.max, err)
		}
		if !reflect.DeepEqual(out16, in16) {
			t.Errorf("uint16 max %d: round trip %v, want %v", tc.max, out16, in16)
		}
	}
}

// TestPackedNilStaysNil checks a nil vector is omitted from its struct
// and decodes as nil, including as a map value (which gob always
// sends), and that an empty vector decodes as nil as plain gob did.
func TestPackedNilStaysNil(t *testing.T) {
	type msg struct {
		A U64s
		B U16s
		M map[string]U64s
		N int
	}
	for _, in := range []msg{
		{N: 1},
		{A: U64s{}, B: U16s{}, M: map[string]U64s{"x": nil, "y": {}}, N: 2},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
			t.Fatal(err)
		}
		var out msg
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.A != nil || out.B != nil || out.N != in.N {
			t.Errorf("decoded %#v, want nil vectors", out)
		}
		for k, v := range out.M {
			if v != nil {
				t.Errorf("map value %q decoded as %#v, want nil", k, v)
			}
		}
	}
}

// TestPackedHostileHeaders feeds malformed blocks to both decoders:
// each must return an error, never panic or decode garbage.
func TestPackedHostileHeaders(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
		u16  bool // decode as U16s instead of U64s
	}{
		{"empty payload", nil, false},
		{"empty payload uint16", []byte{}, true},
		{"width 0", []byte{0}, false},
		{"width 3", []byte{3, 1, 2, 3}, false},
		{"width 9", []byte{9, 1, 2, 3, 4, 5, 6, 7, 8, 9}, false},
		{"width 3 uint16", []byte{3, 1, 2, 3}, true},
		{"uint16 claiming width 4", []byte{4, 1, 2, 3, 4}, true},
		{"uint16 claiming width 8", []byte{8, 1, 2, 3, 4, 5, 6, 7, 8}, true},
		{"ragged width 2", []byte{2, 1, 2, 3}, false},
		{"ragged width 4", []byte{4, 1, 2, 3, 4, 5}, false},
		{"ragged width 8", []byte{8, 1, 2, 3, 4, 5, 6, 7}, false},
		{"ragged uint16 width 2", []byte{2, 1}, true},
	}
	for _, tc := range cases {
		var err error
		if tc.u16 {
			var v U16s
			err = v.GobDecode(tc.b)
		} else {
			var v U64s
			err = v.GobDecode(tc.b)
		}
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

// Plain-slice twins of three hot reply/request messages: what the wire
// carried before packing, the size baseline the packed form must match.
type plainPSIReply struct {
	Out   []uint64
	Stats Stats
}

type plainPSUReply struct {
	Out   []uint16
	Stats Stats
}

type plainAggRequest struct {
	Table string
	Cols  []string
	Z     []uint64
	VZ    []uint64
}

// TestPackedFrameSizeGuard pins packed frames to no more bytes than
// gob's varints for the value ranges each message really carries: PSI
// outputs below η′ (2 bytes packed, up to 3 as varints), δ-residue PSU
// shares (1 byte either way) and 61-bit Shamir shares (8 bytes packed,
// 9 as varints). A fixed 8-byte width would make a PSI frame about 3×
// larger and fails here.
func TestPackedFrameSizeGuard(t *testing.T) {
	const (
		cells    = 1 << 16
		delta    = 113      // the paper's δ
		etaPrime = 13 * 227 // the paper's η′
		slack    = 64       // per-frame type-descriptor difference
	)
	rng := rand.New(rand.NewSource(1))
	psi := make([]uint64, cells)
	for i := range psi {
		psi[i] = uint64(rng.Intn(etaPrime))
	}
	psu := make([]uint16, cells)
	for i := range psu {
		psu[i] = uint16(rng.Intn(delta))
	}
	z, vz := make([]uint64, cells), make([]uint64, cells)
	for i := range z {
		z[i], vz[i] = rng.Uint64()%field.P, rng.Uint64()%field.P
	}
	cols := []string{"DT"}
	cases := []struct {
		name          string
		packed, plain any
	}{
		{"PSIReply", PSIReply{Out: psi}, plainPSIReply{Out: psi}},
		{"PSUReply", PSUReply{Out: psu}, plainPSUReply{Out: psu}},
		{"AggRequest", AggRequest{Table: "t", Cols: cols, Z: z, VZ: vz},
			plainAggRequest{Table: "t", Cols: cols, Z: z, VZ: vz}},
	}
	size := func(v any) int {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	for _, tc := range cases {
		p, g := size(tc.packed), size(tc.plain)
		if p > g+slack {
			t.Errorf("%s: packed frame %d bytes > plain gob %d + %d slack", tc.name, p, g, slack)
		}
	}
}
