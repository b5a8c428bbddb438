package protocol

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

func TestStatsAdd(t *testing.T) {
	a := Stats{FetchNS: 10, ComputeNS: 20, Cells: 5}
	a.Add(Stats{FetchNS: 1, ComputeNS: 2, Cells: 3})
	if a.FetchNS != 11 || a.ComputeNS != 22 || a.Cells != 8 {
		t.Errorf("Stats.Add = %+v", a)
	}
}

func TestExtremeKindString(t *testing.T) {
	cases := map[ExtremeKind]string{
		KindMax:         "max",
		KindMin:         "min",
		KindMedian:      "median",
		ExtremeKind(99): "unknown",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q want %q", k, k.String(), want)
		}
	}
}

// TestEveryMessageGobRoundTrips feeds a populated instance of every
// message type through the envelope used by both transports and
// requires the decoded value to be identical. Every packed vector field
// carries a value above 255, so none rides on the 1-byte width alone.
func TestEveryMessageGobRoundTrips(t *testing.T) {
	type env struct{ P any }
	gob.Register(env{})
	const w2, w4, w8 = 300, 70000, 1 << 40 // force 2-, 4- and 8-byte widths
	msgs := []any{
		TableSpec{Name: "t", B: 9, AggCols: []string{"a"}, HasVerify: true, HasCount: true, Plain: true},
		StoreRequest{Owner: 2, Spec: TableSpec{Name: "x", B: 2},
			ChiAdd: U16s{1, w2}, ChiBarAdd: U16s{65535, 0},
			SumCols:  map[string]U64s{"c": {4, w8}},
			VSumCols: map[string]U64s{"c": {w4, 5}},
			CountCol: U64s{6, w2}, VCountCol: U64s{w8, 7}},
		StoreReply{Cells: 3},
		StoreDeltaRequest{Owner: 1, Group: 1, Table: "t", Shard: Range{Offset: 256, Count: 512},
			Pos: U64s{300, 301}, Chi: U16s{w2, 1}, Sums: map[string]U64s{"c": {w8, 2}}, Cnt: U64s{w4, 0},
			VPos: U64s{400, 700}, ChiBar: U16s{2, w2}, VSums: map[string]U64s{"c": {1, w8}}, VCnt: U64s{0, w4}},
		StoreDeltaReply{Entries: 4, Epoch: 2},
		DropRequest{Table: "t"}, DropReply{},
		PSIRequest{Table: "t", QueryID: "q", Cells: []uint32{3}},
		PSIReply{Out: U64s{1, w2}, Stats: Stats{Cells: 2, FetchNS: 1}},
		PSIVerifyRequest{Table: "t", QueryID: "q"},
		PSIVerifyReply{Vout: U64s{w4}},
		CountRequest{Table: "t", Verify: true},
		CountReply{Out: U64s{w2}, Vout: U64s{w8}},
		PSURequest{Table: "t", QueryID: "n", Permute: true},
		PSUReply{Out: U16s{4, w2}},
		AggRequest{Table: "t", Cols: []string{"a"}, WithCount: true,
			Z: U64s{1, w8}, VZ: U64s{w4, 2}},
		AggReply{Sums: map[string]U64s{"a": {w8}}, Counts: U64s{w2},
			VSums: map[string]U64s{"a": {w4}}, VCounts: U64s{1, w8}},
		ExtremeSubmitRequest{QueryID: "q", Kind: KindMedian, Owner: 1, VShare: []byte{1, 2}},
		ExtremeSubmitReply{Forwarded: true},
		ExtremeFetchRequest{QueryID: "q"},
		ExtremeFetchReply{Ready: true, ValueShares: [][]byte{{3}}, IndexShare: 7, HasIndex: true},
		AnnounceRequest{QueryID: "q", Kind: KindMax, ServerIdx: 1, Shares: [][]byte{{1}, {2}}},
		AnnounceReply{Have: 2},
		AnnounceFetchRequest{QueryID: "q", ServerIdx: 0},
		AnnounceFetchReply{Ready: true, ValueShares: [][]byte{{9}}},
		ClaimSubmitRequest{QueryID: "q", Owner: 0, Share: 5},
		ClaimSubmitReply{},
		ClaimFetchRequest{QueryID: "q"},
		ClaimFetchReply{Ready: true, Fpos: U16s{0, w2}},
	}
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&env{P: m}); err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		var out env
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !reflect.DeepEqual(out.P, m) {
			t.Errorf("%T: round trip changed value:\n got %#v\nwant %#v", m, out.P, m)
		}
	}
}
