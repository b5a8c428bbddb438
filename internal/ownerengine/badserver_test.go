package ownerengine

import (
	"context"
	"testing"

	"prism/internal/params"
	"prism/internal/prg"
	"prism/internal/protocol"
)

// shapeShifter returns malformed-but-typed replies to exercise the
// owner's reply validation (wrong lengths, wrong types).
type shapeShifter struct {
	mode string
	b    int
}

func (s *shapeShifter) Call(_ context.Context, addr string, req any) (any, error) {
	switch req.(type) {
	case protocol.StoreRequest:
		return protocol.StoreReply{Cells: uint64(s.b)}, nil
	case protocol.PSIRequest:
		switch s.mode {
		case "short":
			return protocol.PSIReply{Out: make([]uint64, s.b-1)}, nil
		case "wrongtype":
			return protocol.PSUReply{Out: make([]uint16, s.b)}, nil
		}
	case protocol.PSIVerifyRequest:
		return protocol.PSIVerifyReply{Vout: make([]uint64, s.b-2)}, nil
	case protocol.PSURequest:
		return protocol.PSUReply{Out: make([]uint16, s.b+1)}, nil
	case protocol.CountRequest:
		return protocol.CountReply{Out: make([]uint64, s.b/2)}, nil
	case protocol.AggRequest:
		return protocol.AggReply{Sums: map[string]protocol.U64s{"v": make([]uint64, 1)}}, nil
	case protocol.ExtremeFetchRequest:
		return protocol.ExtremeFetchReply{Ready: true, ValueShares: [][]byte{{1}}}, nil
	case protocol.ClaimFetchRequest:
		return protocol.ClaimFetchReply{Ready: true, Fpos: make([]uint16, 1)}, nil
	}
	return protocol.StoreReply{}, nil
}

func shapeOwner(t *testing.T, mode string) *Owner {
	t.Helper()
	sys, err := params.Generate(params.Config{
		NumOwners:  2,
		DomainSize: 16,
		MaxAgg:     100,
		Seed:       prg.SeedFromString("bad-server"),
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(0, sys.ForOwner(), &shapeShifter{mode: mode, b: 16},
		[]string{"s0", "s1", "s2"}, prg.SeedFromString("o"))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Load(&Data{Cells: []uint64{1}, Aggs: map[string][]uint64{"v": {5}}}); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOwnerRejectsShortPSIReply(t *testing.T) {
	o := shapeOwner(t, "short")
	if _, err := o.PSI(context.Background(), "t"); err == nil {
		t.Error("short PSI reply accepted")
	}
}

func TestOwnerRejectsWrongReplyType(t *testing.T) {
	o := shapeOwner(t, "wrongtype")
	if _, err := o.PSI(context.Background(), "t"); err == nil {
		t.Error("mistyped PSI reply accepted")
	}
}

func TestOwnerRejectsMalformedReplies(t *testing.T) {
	o := shapeOwner(t, "")
	ctx := context.Background()
	if _, err := o.PSU(ctx, "t"); err == nil {
		t.Error("oversized PSU reply accepted")
	}
	if _, err := o.Count(ctx, "t", false); err == nil {
		t.Error("half-length count reply accepted")
	}
	if _, err := o.Aggregate(ctx, "t", []uint64{1}, []string{"v"}, false, false); err == nil {
		t.Error("one-cell aggregation reply accepted")
	}
	if err := o.VerifyPSI(ctx, "t", &SetResult{fop: make([]uint64, 16)}); err == nil {
		t.Error("short verify reply accepted")
	}
	if _, err := o.FetchClaims(ctx, "q", 0); err != nil {
		// A 1-slot fpos for a 2-owner system: lengths agree between the
		// two (identical stub) servers, so reconstruction proceeds and
		// yields a 1-entry vector; the orchestrator's slot checks catch
		// it. Either acceptance with short vector or an error is fine —
		// just must not panic.
		_ = err
	}
}

// TestExtremeFetchTamperedShareCaught: a random single-byte share for a
// value reconstructs outside F's image with overwhelming probability.
func TestExtremeFetchTamperedShareCaught(t *testing.T) {
	o := shapeOwner(t, "")
	_, err := o.FetchExtreme(context.Background(), "q", protocol.KindMax, 0)
	if err == nil {
		t.Error("tampered extreme value accepted")
	}
}
