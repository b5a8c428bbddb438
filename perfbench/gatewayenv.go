package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prism"
	"prism/internal/gateway"
	"prism/internal/ownerengine"
	"prism/internal/params"
	"prism/internal/serverengine"
	"prism/internal/sharestore"
	"prism/internal/telemetry"
	"prism/internal/transport"
)

// gatewayEnv is the production deployment shape run in one process: two
// groups of three disk-backed server engines served on loopback TCP,
// data owners outsourcing over TCP clients, and a gateway over a pool of
// owner engines (what prism-gateway runs) answering front-protocol
// clients.
type gatewayEnv struct {
	d       *dataset
	tamper  tamperFunc
	rec     *recorder
	dir     string
	engines []*serverengine.Engine
	owners  []*ownerengine.Owner // the data owners
	clients []*transport.TCPClient
	fronts  []*gateway.Client
	gen     prism.ShareGenStats
	cancel  context.CancelFunc
	serving sync.WaitGroup

	nextQ atomic.Int64
	mu    sync.Mutex
	ends  map[int64]span // client-side Query spans of traced queries
}

const gatewayGroups = 2

// poolSize is the gateway's owner-engine pool: two members, one per
// front client.
const poolSize = 2

func setupGateway(ctx context.Context, d *dataset, dir string, clients int, tamper tamperFunc, rec *recorder) (*gatewayEnv, error) {
	sc := d.sc
	multi, err := params.GenerateGroups(params.Config{
		NumOwners:  sc.Owners,
		DomainSize: sc.Domain,
		MaxAgg:     maxValue,
		Seed:       d.seed.Derive("params"),
	}, gatewayGroups)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(context.Background())
	e := &gatewayEnv{d: d, tamper: tamper, rec: rec, dir: dir, cancel: cancel, ends: make(map[int64]span)}
	book := make(map[string]string)
	cfgs := make([]ownerengine.GroupConfig, len(multi.Groups))
	for g, gsys := range multi.Groups {
		var addrs []string
		for phi := 0; phi < params.NumServers; phi++ {
			view, err := gsys.ForServer(phi)
			if err != nil {
				e.close()
				return nil, err
			}
			store, err := sharestore.Open(filepath.Join(dir, fmt.Sprintf("g%d-server-%d", g, phi)))
			if err != nil {
				e.close()
				return nil, err
			}
			store.SetChunkCells(sc.ShardCells)
			eng := serverengine.New(view, serverengine.Options{
				Threads:      1,
				Store:        store,
				DiskBacked:   true,
				CacheColumns: true,
				CacheBytes:   int64(sc.HotBytes),
				Group:        g,
			})
			e.engines = append(e.engines, eng)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				e.close()
				return nil, err
			}
			logical := fmt.Sprintf("g%d/server/%d", g, phi)
			if g == 0 {
				logical = fmt.Sprintf("server/%d", phi)
			}
			book[logical] = ln.Addr().String()
			addrs = append(addrs, logical)
			e.serving.Add(1)
			go func() {
				defer e.serving.Done()
				// A dead server fails the queries that need it; those
				// count as failed operations.
				if err := transport.Serve(sctx, ln, &timedHandler{inner: eng, rec: rec}); err != nil {
					fmt.Fprintln(os.Stderr, "perfbench: server:", err)
				}
			}()
		}
		cfgs[g] = ownerengine.GroupConfig{View: gsys.ForOwner(), Servers: addrs}
	}

	// Data owners share one multiplexed TCP client and outsource.
	dataClient := transport.NewTCPClient(book)
	e.clients = append(e.clients, dataClient)
	for j := 0; j < sc.Owners; j++ {
		o, err := ownerengine.NewMulti(j, cfgs, dataClient, d.seed.Derive(fmt.Sprintf("owner/%d", j)))
		if err != nil {
			e.close()
			return nil, err
		}
		o.SetShardCells(sc.ShardCells)
		if err := o.Load(&ownerengine.Data{Cells: d.cells[j], Aggs: map[string][]uint64{aggCol: d.vals[j]}}); err != nil {
			e.close()
			return nil, err
		}
		st, err := o.Outsource(ctx, ownerengine.OutsourceSpec{Table: tableName, AggCols: []string{aggCol}, WithCount: true})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("owner %d outsourcing: %w", j, err)
		}
		e.gen.BuildNS += st.BuildNS
		e.gen.SplitNS += st.SplitNS
		e.gen.UploadNS += st.UploadNS
		e.owners = append(e.owners, o)
	}

	// The gateway's pool: independent owner engines, each over its own
	// TCP client, all querying as owner 0 (cmd/prism-gateway's wiring).
	backends := make([]gateway.Backend, poolSize)
	for k := range backends {
		cl := transport.NewTCPClient(book)
		e.clients = append(e.clients, cl)
		o, err := ownerengine.NewMulti(0, cfgs, &timedCaller{inner: cl, rec: rec}, d.seed.Derive(fmt.Sprintf("pool/%d", k)))
		if err != nil {
			e.close()
			return nil, err
		}
		o.SetShardCells(sc.ShardCells)
		backends[k] = &timedBackend{inner: &gateway.EngineBackend{Owner: o, Table: tableName}, rec: rec, tamper: tamper}
	}
	gw, err := gateway.New(gateway.Config{Backends: backends, DefaultTimeout: time.Minute})
	if err != nil {
		e.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		if err := gw.Serve(sctx, ln); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: gateway:", err)
		}
	}()
	for c := 0; c < clients; c++ {
		fc, err := gateway.Dial(ln.Addr().String())
		if err != nil {
			e.close()
			return nil, err
		}
		e.fronts = append(e.fronts, fc)
	}
	return e, nil
}

// gatewayMix is what pooled owner engines serve: no extremes.
var gatewayMix = []string{"psi", "psu", "count", "sum"}

// traceTag is the trailing column a traced front request carries: it
// names the bench query, and timedBackend strips it before the pool
// member executes, so untraced and traced requests run the same query.
const traceTag = "bench-q"

func (e *gatewayEnv) query(ctx context.Context, c int, op string) error {
	var cols []string
	if op == "sum" {
		cols = []string{aggCol}
	}
	traced := e.rec.on.Load()
	var q int64
	if traced {
		q = e.nextQ.Add(1)
		cols = append(cols, traceTag+strconv.FormatInt(q, 10))
	}
	start := time.Now().UnixNano()
	resp, err := e.fronts[c].Query(op, cols, "bench", time.Minute)
	end := time.Now().UnixNano()
	if err != nil {
		return errf(op, err)
	}
	if traced {
		e.mu.Lock()
		e.ends[q] = span{Name: "query", Query: q, Type: op, Start: start, End: end}
		e.mu.Unlock()
	}
	a := &answer{cells: resp.Cells, count: resp.Count}
	if op == "sum" {
		a.sums = resp.Sums[aggCol]
	}
	// The bench-side corruption hook sits in timedBackend, before the
	// gateway serialises the answer.
	if err := e.d.check(op, a); err != nil {
		return mismatch{err}
	}
	return nil
}

// timedBackend wraps one pool member: it times Exec as the "exec" span
// of the query named by the trace tag and passes that query id down the
// context to the member's timedCaller.
type timedBackend struct {
	inner  gateway.Backend
	rec    *recorder
	tamper tamperFunc
}

func (b *timedBackend) Exec(ctx context.Context, q gateway.Query) (*gateway.Result, error) {
	var id int64
	if n := len(q.Cols); n > 0 && strings.HasPrefix(q.Cols[n-1], traceTag) {
		id, _ = strconv.ParseInt(strings.TrimPrefix(q.Cols[n-1], traceTag), 10, 64)
		q.Cols = q.Cols[:n-1]
		ctx = withQuery(ctx, id)
	}
	start := time.Now().UnixNano()
	res, err := b.inner.Exec(ctx, q)
	b.rec.record(span{Name: "exec", Query: id, Type: q.Kind, Start: start, End: time.Now().UnixNano()})
	if err == nil && b.tamper != nil {
		a := &answer{cells: res.Cells, count: res.Count}
		if q.Kind == "sum" {
			a.sums = res.Sums[aggCol]
		}
		b.tamper(q.Kind, a)
		res.Cells, res.Count = a.cells, a.count
		if q.Kind == "sum" {
			res.Sums[aggCol] = a.sums
		}
	}
	return res, err
}

func (b *timedBackend) Ping(ctx context.Context) error { return b.inner.Ping(ctx) }

func (e *gatewayEnv) update(ctx context.Context, add, rm *tuple) (ownerengine.UpdateStats, error) {
	var ad, rd *ownerengine.Data
	if add != nil {
		ad = &ownerengine.Data{Cells: []uint64{add.cell}, Aggs: map[string][]uint64{aggCol: {add.val}}}
	}
	if rm != nil {
		rd = &ownerengine.Data{Cells: []uint64{rm.cell}, Aggs: map[string][]uint64{aggCol: {rm.val}}}
	}
	return e.owners[0].Update(ctx, tableName, ad, rd)
}

// finalState reads the union and its per-cell sums through data owner 0.
func (e *gatewayEnv) finalState(ctx context.Context) ([]uint64, map[uint64]uint64, error) {
	u, err := e.owners[0].PSU(ctx, tableName)
	if err != nil {
		return nil, nil, err
	}
	agg, err := e.owners[0].Aggregate(ctx, tableName, u.Cells, []string{aggCol}, false, false)
	if err != nil {
		return nil, nil, err
	}
	return u.Cells, agg.Sums[aggCol], nil
}

func (e *gatewayEnv) shareGen() prism.ShareGenStats { return e.gen }

func (e *gatewayEnv) peakHeldBytes() int64 {
	var p int64
	for _, eng := range e.engines {
		p = max(p, eng.PeakHeldBytes())
	}
	return p
}

func (e *gatewayEnv) storeDir() string { return e.dir }

// compact runs one synchronous compaction pass on every server.
func (e *gatewayEnv) compact() error {
	var errs []error
	for _, eng := range e.engines {
		for name, err := range eng.CompactAll() {
			errs = append(errs, fmt.Errorf("compacting %q: %w", name, err))
		}
	}
	return errors.Join(errs...)
}

func (e *gatewayEnv) backlog() int {
	var n int
	for _, eng := range e.engines {
		n += eng.DeltaBacklog(tableName)
	}
	return n
}

func (e *gatewayEnv) startTrace() { e.rec.on.Store(true) }

func (e *gatewayEnv) writeTrace(path string) error { return e.rec.write(path) }

// close stops every client, listener and server goroutine and waits
// for them.
func (e *gatewayEnv) close() {
	for _, fc := range e.fronts {
		fc.Close()
	}
	e.cancel()
	for _, cl := range e.clients {
		cl.Close()
	}
	e.serving.Wait()
	for _, eng := range e.engines {
		eng.Close()
	}
}

// layers reduces the traced phase. Each traced query's client span is
// partitioned, from the bench's own wrappers, into the gateway front
// tier (outside the pool member's Exec), the owner engine (Exec outside
// any outbound RPC), transport (RPCs in flight with no server handler
// running for the query) and the server engines (handlers running).
func (e *gatewayEnv) layers(m *metrics, dl delta) error {
	bd := newBreakdown("gateway.self_ms", "ownerengine.self_ms", "transport.wait_ms", "serverengine.busy_ms")
	spans := e.rec.byQuery()
	e.mu.Lock()
	ends := e.ends
	e.mu.Unlock()
	selfByOp := make(map[string][]float64)
	compByOp := make(map[string][]float64)
	var rpcNS, rpcs, handleNS, fetchNS, compNS, cells float64
	handleBy := make(map[string][]float64)
	for q, qs := range ends {
		ss := spans[q]
		exec := intervalsOf(ss, "exec")
		rpc := intervalsOf(ss, "rpc")
		hnd := intervalsOf(ss, "handle")
		ln := func(iv []interval) int64 { return length(iv) }
		self := map[string]int64{
			"gateway.self_ms":      qs.dur() - ln(exec),
			"ownerengine.self_ms":  ln(exec) - ln(rpc),
			"transport.wait_ms":    ln(rpc) - ln(hnd),
			"serverengine.busy_ms": ln(hnd),
		}
		bd.add(qs.dur(), self)
		selfByOp[qs.Type] = append(selfByOp[qs.Type], float64(self["ownerengine.self_ms"])/1e6)
		var qcomp float64
		for _, s := range ss {
			switch s.Name {
			case "rpc":
				rpcNS += float64(s.dur())
				rpcs++
				fetchNS += float64(s.FetchNS)
				qcomp += float64(s.ComputeNS)
				cells += float64(s.Cells)
			case "handle":
				handleNS += float64(s.dur())
				typ := strings.ToLower(strings.TrimSuffix(s.Type, "Request"))
				handleBy[typ] = append(handleBy[typ], float64(s.dur())/1e6)
			}
		}
		compNS += qcomp
		compByOp[qs.Type] = append(compByOp[qs.Type], qcomp/1e6)
	}
	if err := bd.check(); err != nil {
		return err
	}
	bd.emit(m)
	q := float64(max(len(ends), 1))
	serverCommon(m, dl, q)
	for op, xs := range selfByOp {
		m.set("ownerengine.self_ms."+op, "ms", median(xs))
	}
	for op, xs := range compByOp {
		m.set("serverengine.compute_ms."+op, "ms", median(xs))
	}
	if cells > 0 {
		m.set("serverengine.compute_ns_per_cell", "ns", compNS/cells)
	}
	m.set("sharestore.fetch_ms", "ms", fetchNS/1e6/q)
	for _, typ := range handlerTypes {
		if xs := handleBy[typ]; len(xs) > 0 {
			m.set("serverengine.handle_ms."+typ, "ms", mean(xs))
		}
	}
	m.set("transport.rpc_ms", "ms", (rpcNS-handleNS)/1e6/q)
	m.set("transport.rpcs_per_query", "count", rpcs/q)
	_, wait := dl.hist(telemetry.MetricGatewayQueueSeconds, "")
	m.set("gateway.queue_wait_ms", "ms", 1000*wait/q)
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
