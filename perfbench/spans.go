package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/protocol"
	"prism/internal/transport"
)

// span is one bench-side timed call into a layer: which boundary
// (Name), which traced query caused it (Query, 0 when unknown), and its
// wall-clock interval in Unix nanoseconds. Type is the protocol message
// type for RPC boundaries and the operator for query spans.
type span struct {
	Name  string `json:"name"`
	Query int64  `json:"query"`
	Type  string `json:"type,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Server-side costs an RPC reply reported (protocol.Stats).
	FetchNS   int64 `json:"fetch_ns,omitempty"`
	ComputeNS int64 `json:"compute_ns,omitempty"`
	PatchNS   int64 `json:"patch_ns,omitempty"`
	Cells     int   `json:"cells,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder holds spans in memory while tracing is on; it writes them
// out once, when the run ends. Off, record costs one atomic load.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	// qids maps a program query id (the QueryID field of protocol
	// requests) to the bench query that issued it, so server-side
	// handler spans can be charged to their query.
	qids map[string]int64
}

func newRecorder() *recorder { return &recorder{qids: make(map[string]int64)} }

func (r *recorder) record(s span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) bind(qid string, q int64) {
	r.mu.Lock()
	r.qids[qid] = q
	r.mu.Unlock()
}

func (r *recorder) lookup(qid string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.qids[qid]
}

// byQuery groups the recorded spans by bench query id.
func (r *recorder) byQuery() map[int64][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int64][]span)
	for _, s := range r.spans {
		out[s.Query] = append(out[s.Query], s)
	}
	return out
}

// write dumps every span as JSON to path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type queryKey struct{}

// withQuery tags ctx with the bench query id the spans below it belong to.
func withQuery(ctx context.Context, q int64) context.Context {
	return context.WithValue(ctx, queryKey{}, q)
}

func queryOf(ctx context.Context) int64 {
	q, _ := ctx.Value(queryKey{}).(int64)
	return q
}

// programQueryID reads the QueryID field most protocol requests carry
// ("" for requests without one).
func programQueryID(req any) string {
	v := reflect.ValueOf(req)
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return ""
	}
	f := v.FieldByName("QueryID")
	if !f.IsValid() || f.Kind() != reflect.String {
		return ""
	}
	return f.String()
}

// msgType is a payload's Go type name without its package path, the
// label the program's own RPC metrics use.
func msgType(v any) string {
	t := reflect.TypeOf(v)
	if t == nil {
		return "nil"
	}
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// timedCaller wraps an owner engine's transport.Caller: every outbound
// RPC becomes an "rpc" span charged to the query in its context.
type timedCaller struct {
	inner transport.Caller
	rec   *recorder
}

func (c *timedCaller) Call(ctx context.Context, addr string, req any) (any, error) {
	if !c.rec.on.Load() {
		return c.inner.Call(ctx, addr, req)
	}
	q := queryOf(ctx)
	if qid := programQueryID(req); qid != "" && q != 0 {
		c.rec.bind(qid, q)
	}
	start := time.Now().UnixNano()
	rep, err := c.inner.Call(ctx, addr, req)
	s := span{Name: "rpc", Query: q, Type: msgType(req), Start: start, End: time.Now().UnixNano()}
	if st, ok := replyStats(rep); ok {
		s.FetchNS, s.ComputeNS, s.PatchNS, s.Cells = st.FetchNS, st.ComputeNS, st.PatchNS, st.Cells
	}
	c.rec.record(s)
	return rep, err
}

// replyStats reads the protocol.Stats a query reply carries.
func replyStats(rep any) (protocol.Stats, bool) {
	v := reflect.ValueOf(rep)
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return protocol.Stats{}, false
	}
	f := v.FieldByName("Stats")
	if !f.IsValid() {
		return protocol.Stats{}, false
	}
	st, ok := f.Interface().(protocol.Stats)
	return st, ok
}

// timedHandler wraps a served engine: every handled request becomes a
// "handle" span, charged to its query through the QueryID binding the
// caller side made.
type timedHandler struct {
	inner transport.Handler
	rec   *recorder
}

func (h *timedHandler) Handle(ctx context.Context, req any) (any, error) {
	if !h.rec.on.Load() {
		return h.inner.Handle(ctx, req)
	}
	start := time.Now().UnixNano()
	rep, err := h.inner.Handle(ctx, req)
	end := time.Now().UnixNano()
	h.rec.record(span{Name: "handle", Query: h.rec.lookup(programQueryID(req)), Type: msgType(req), Start: start, End: end})
	return rep, err
}

// interval arithmetic over [a, b) wall-clock intervals.
type interval struct{ a, b int64 }

// union merges overlapping intervals into a sorted disjoint set.
func union(iv []interval) []interval {
	if len(iv) == 0 {
		return nil
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].a < s[j].a })
	out := []interval{s[0]}
	for _, x := range s[1:] {
		last := &out[len(out)-1]
		if x.a <= last.b {
			if x.b > last.b {
				last.b = x.b
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func length(iv []interval) int64 {
	var t int64
	for _, x := range union(iv) {
		t += x.b - x.a
	}
	return t
}

func intervalsOf(spans []span, name string) []interval {
	var out []interval
	for _, s := range spans {
		if s.Name == name {
			out = append(out, interval{s.Start, s.End})
		}
	}
	return out
}

// breakdown accumulates per-query layer self times (ms) and the
// end-to-end span they partition.
type breakdown struct {
	layers []string // partition order
	sums   map[string]float64
	e2e    float64
	n      int
	// worst is the most negative share of its span that any query's
	// layer or unattributed remainder took.
	worst float64
}

func newBreakdown(layers ...string) *breakdown {
	return &breakdown{layers: layers, sums: make(map[string]float64)}
}

// add files one query: e2e and each layer's self time in ns. The
// unattributed remainder is what no layer's span covers, so the layers
// and the remainder sum to the span by construction; what can go wrong
// is a negative term, which means a child span reached outside its
// parent or two layers claimed the same time.
func (b *breakdown) add(e2e int64, self map[string]int64) {
	unat := e2e
	for _, l := range b.layers {
		b.sums[l] += float64(self[l]) / 1e6
		unat -= self[l]
		b.note(self[l], e2e)
	}
	b.note(unat, e2e)
	b.sums["unattributed_ms"] += float64(unat) / 1e6
	b.e2e += float64(e2e) / 1e6
	b.n++
}

func (b *breakdown) note(part, e2e int64) {
	if e2e > 0 {
		b.worst = min(b.worst, float64(part)/float64(e2e))
	}
}

// sumSlack is how far below zero a layer's self time or the
// unattributed remainder may fall, as a share of the query's span,
// before the partition is judged broken (clock reads at the boundaries
// are not simultaneous).
const sumSlack = 0.02

// check is the sum check: every traced query's layers and remainder are
// each no less than −sumSlack of its span.
func (b *breakdown) check() error {
	if b.n == 0 {
		return fmt.Errorf("no traced queries")
	}
	if b.worst < -sumSlack {
		return fmt.Errorf("a layer or the remainder took %.1f%% of a query's span", 100*b.worst)
	}
	return nil
}

// emit writes the per-query means into m.
func (b *breakdown) emit(m *metrics) {
	n := float64(b.n)
	for _, l := range b.layers {
		m.set(l, "ms", b.sums[l]/n)
	}
	m.set("unattributed_ms", "ms", b.sums["unattributed_ms"]/n)
	m.set("trace.e2e_ms", "ms", b.e2e/n)
	m.set("trace.queries", "count", n)
}
