package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prism"
	"prism/internal/ownerengine"
	"prism/internal/protocol"
	"prism/internal/telemetry"
)

// localEnv drives a library-mode deployment (prism.NewLocalSystem): the
// scheduler front door, the in-process fabric, RAM or disk servers.
type localEnv struct {
	sys    *prism.System
	d      *dataset
	tamper tamperFunc
	gen    prism.ShareGenStats
	disk   string // store root, "" for RAM servers

	// liveWrites marks a deployment a writer updates while the readers
	// run. Its union moves, so PSU is checked only in the final state;
	// the other answers are still compared with the static oracle, but
	// a disagreement counts as a live-read anomaly, not a gate failure:
	// each server applies an update's delta on its own, with nothing
	// making the three apply it atomically for readers, so a read that
	// overlaps it can combine pre- and post-update shares of one cell.
	liveWrites bool
	anomalies  atomic.Int64

	// Traced-phase accumulators, filled once startTrace is called on a
	// system built with Config.Trace.
	traceCfg bool
	traced   atomic.Bool
	mu       sync.Mutex
	raw      [][]protocol.Span // each traced query's program spans
	bd       *breakdown
	ownerNS  map[string][]float64 // QueryStats.OwnerNS per op, ms
	compNS   map[string][]float64 // QueryStats.ServerComputeNS per op, ms
	fetchNS  []float64            // QueryStats.ServerFetchNS per query, ms
	patchNS  []float64            // Σ server:patch spans per query, ms
	compSum  float64              // Σ ServerComputeNS, ns
	queries  int
}

var localOps = map[string]prism.OpKind{
	"psi":   prism.OpPSI,
	"psu":   prism.OpPSU,
	"count": prism.OpPSICount,
	"sum":   prism.OpPSISum,
	"max":   prism.OpPSIMax,
}

// setupLocal wires the system, loads every owner and outsources them.
func setupLocal(ctx context.Context, d *dataset, cfg prism.Config, tamper tamperFunc) (*localEnv, error) {
	dom, err := prism.IntDomain(1, d.sc.Domain)
	if err != nil {
		return nil, err
	}
	cfg.Owners = d.sc.Owners
	cfg.Domain = dom
	cfg.AggColumns = []string{aggCol}
	cfg.MaxAggValue = maxValue
	cfg.TableName = tableName
	cfg.Seed = d.seed.Derive("system")
	sys, err := prism.NewLocalSystem(cfg)
	if err != nil {
		return nil, err
	}
	e := &localEnv{sys: sys, d: d, tamper: tamper, disk: cfg.DiskDir, traceCfg: cfg.Trace,
		bd:      newBreakdown("ownerengine.self_ms", "serverengine.busy_ms"),
		ownerNS: make(map[string][]float64), compNS: make(map[string][]float64)}
	for j := 0; j < d.sc.Owners; j++ {
		if err := sys.Owner(j).LoadCells(d.cells[j], map[string][]uint64{aggCol: d.vals[j]}); err != nil {
			sys.Close()
			return nil, err
		}
	}
	if e.gen, err = sys.OutsourceAll(ctx); err != nil {
		sys.Close()
		return nil, err
	}
	return e, nil
}

func (e *localEnv) query(ctx context.Context, c int, op string) error {
	req := prism.Request{Op: localOps[op]}
	if op == "sum" || op == "max" {
		req.Cols = []string{aggCol}
	}
	start := time.Now()
	resp := e.sys.QueryAsync(ctx, req).Wait()
	end := time.Now()
	if resp.Err != nil {
		return errf(op, resp.Err)
	}
	a, st := localAnswer(resp)
	if e.traced.Load() {
		e.file(op, st, start, end)
	}
	if e.tamper != nil {
		e.tamper(op, a)
	}
	err := e.d.check(op, a)
	switch {
	case err == nil:
	case !e.liveWrites:
		return mismatch{err}
	case op != "psu":
		if e.anomalies.Add(1) <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: live-read anomaly: %v\n", err)
		}
	}
	return nil
}

// localAnswer converts a scheduler response into the oracle's form.
func localAnswer(r *prism.Response) (*answer, prism.QueryStats) {
	switch {
	case r.Set != nil:
		return &answer{cells: r.Set.Cells}, r.Set.Stats
	case r.Count != nil:
		return &answer{count: r.Count.Count}, r.Count.Stats
	case r.Agg != nil:
		return &answer{cells: r.Agg.Cells, sums: r.Agg.Sums[aggCol]}, r.Agg.Stats
	}
	x := r.Extreme
	a := &answer{cells: x.Cells, maxAt: make(map[uint64]uint64), maxOwners: make(map[uint64][]int)}
	for c, v := range x.PerCell {
		a.maxAt[c] = v.Value
		a.maxOwners[c] = v.Owners
	}
	if x.Global != nil {
		a.global = x.Global.Value
	}
	return a, x.Stats
}

// file reduces one traced query: its scheduler span, partitioned into
// the time server handlers ran (serverengine), the rest of the owner
// exchanges and announcer rounds (ownerengine, which in library mode
// includes the in-process fabric and codec), and what no program span
// covers — the prism System layer's own orchestration and queueing.
func (e *localEnv) file(op string, st prism.QueryStats, start, end time.Time) {
	var srv, all []interval
	var patch int64
	var raw []protocol.Span
	if tr, ok := e.sys.QueryTrace(st.TraceID); ok {
		raw = tr.Spans
		for _, s := range tr.Spans {
			iv := interval{s.StartNS, s.StartNS + s.DurNS}
			switch {
			case s.Name == "server:patch":
				patch += s.DurNS
			case strings.HasPrefix(s.Name, "server:rpc:"):
				srv = append(srv, iv)
				all = append(all, iv)
			case s.Name == "owner:exchange" || s.Name == "announcer:reduce":
				all = append(all, iv)
			}
		}
	}
	busy := length(srv)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.raw = append(e.raw, raw)
	e.bd.add(end.UnixNano()-start.UnixNano(), map[string]int64{
		"serverengine.busy_ms": busy,
		"ownerengine.self_ms":  length(all) - busy,
	})
	e.ownerNS[op] = append(e.ownerNS[op], float64(st.OwnerNS)/1e6)
	e.compNS[op] = append(e.compNS[op], float64(st.ServerComputeNS)/1e6)
	e.fetchNS = append(e.fetchNS, float64(st.ServerFetchNS)/1e6)
	e.patchNS = append(e.patchNS, float64(patch)/1e6)
	e.compSum += float64(st.ServerComputeNS)
	e.queries++
}

func (e *localEnv) update(ctx context.Context, add, rm *tuple) (ownerengine.UpdateStats, error) {
	var ac, rc []uint64
	var aa, ra map[string][]uint64
	if add != nil {
		ac, aa = []uint64{add.cell}, map[string][]uint64{aggCol: {add.val}}
	}
	if rm != nil {
		rc, ra = []uint64{rm.cell}, map[string][]uint64{aggCol: {rm.val}}
	}
	st, err := e.sys.Owner(0).UpdateCells(ctx, ac, aa, rc, ra)
	return ownerengine.UpdateStats(st), err
}

// finalState reads the union and its per-cell sums.
func (e *localEnv) finalState(ctx context.Context) ([]uint64, map[uint64]uint64, error) {
	r, err := e.sys.PSUSum(ctx, aggCol)
	if err != nil {
		return nil, nil, err
	}
	return r.Cells, r.Sums[aggCol], nil
}

func (e *localEnv) compact() error { return e.sys.CompactTables() }

func (e *localEnv) shareGen() prism.ShareGenStats { return e.gen }

func (e *localEnv) peakHeldBytes() int64 { return e.sys.PeakServerHeldBytes() }

func (e *localEnv) storeDir() string { return e.disk }

func (e *localEnv) liveAnomalies() int64 { return e.anomalies.Load() }

func (e *localEnv) backlog() int {
	var n int
	for phi := 0; phi < 3; phi++ {
		n += e.sys.ServerEngine(phi).DeltaBacklog(tableName)
	}
	return n
}

func (e *localEnv) close() { e.sys.Close() }

func (e *localEnv) startTrace() { e.traced.Store(e.traceCfg) }

func (e *localEnv) writeTrace(path string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	b, err := json.Marshal(e.raw)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layers writes the traced phase's per-layer numbers; dl spans it.
func (e *localEnv) layers(m *metrics, dl delta) error {
	if err := e.bd.check(); err != nil {
		return err
	}
	e.bd.emit(m)
	q := float64(max(e.queries, 1))
	for op, xs := range e.ownerNS {
		m.set("ownerengine.self_ms."+op, "ms", median(xs))
	}
	for op, xs := range e.compNS {
		if op != "max" {
			m.set("serverengine.compute_ms."+op, "ms", median(xs))
		}
	}
	m.set("sharestore.fetch_ms", "ms", mean(e.fetchNS))
	m.set("serverengine.patch_ms", "ms", mean(e.patchNS))
	serverCommon(m, dl, q)
	if cells := dl.value(telemetry.MetricCellsProcessed, ""); cells > 0 {
		m.set("serverengine.compute_ns_per_cell", "ns", e.compSum/cells)
	}
	rpcs, _ := dl.hist(telemetry.MetricRPCSeconds, "*")
	m.set("transport.rpcs_per_query", "count", rpcs/q)
	if n := len(e.ownerNS["max"]); n > 0 {
		res, _ := dl.hist(telemetry.MetricAnnounceSeconds, "")
		m.set("announcer.resolves_per_query", "count", res/float64(n))
		m.set("announcer.resolve_ms", "ms", dl.meanMS(telemetry.MetricAnnounceSeconds, ""))
	}
	return nil
}

// serverCommon fills the layer metrics every workload reads from the
// program's telemetry deltas over q traced queries.
func serverCommon(m *metrics, dl delta, q float64) {
	for _, typ := range handlerTypes {
		if ms := dl.meanMS(telemetry.MetricRPCSeconds, typ); ms > 0 {
			m.set("serverengine.handle_ms."+typ, "ms", ms)
		}
	}
	m.set("serverengine.cells_per_query", "count", dl.value(telemetry.MetricCellsProcessed, "")/q)
	_, bytes := dl.hist(telemetry.MetricRPCBytes, "*")
	m.set("transport.bytes_per_query", "B", bytes/q)
	_, codec := dl.hist(telemetry.MetricFrameEncodeSeconds, "")
	m.set("protocol.codec_ms_per_query", "ms", 1000*codec/q)
	hits, misses := dl.value(telemetry.MetricCacheHits, ""), dl.value(telemetry.MetricCacheMisses, "")
	if hits+misses > 0 {
		m.set("sharestore.cache_hit_ratio", "ratio", hits/(hits+misses))
	}
	m.set("sharestore.cache_misses_per_query", "count", misses/q)
	m.set("sharestore.evictions_per_query", "count", dl.value(telemetry.MetricCacheEvictions, "")/q)
	m.set("sharestore.compactions", "count", dl.value(telemetry.MetricCompactions, ""))
	_, busy := dl.hist(telemetry.MetricCompactionSeconds, "")
	m.set("sharestore.compaction_busy_s", "s", busy)
	m.set("sharestore.compaction_entries", "count", dl.value(telemetry.MetricCompactionEntries, ""))
}

// mismatch marks an answer the oracle rejected, as opposed to a query
// the program failed or refused.
type mismatch struct{ err error }

func (m mismatch) Error() string { return "oracle mismatch: " + m.err.Error() }

func isMismatch(err error) bool {
	var m mismatch
	return errors.As(err, &m)
}

// tamperFunc rewrites an answer between the program and the oracle
// check; the smoke test uses it to prove the gate trips.
type tamperFunc func(op string, a *answer)
