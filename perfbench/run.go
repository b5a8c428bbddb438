package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"prism"
	"prism/internal/ownerengine"
)

// env is one set-up deployment a workload drives.
type env interface {
	// query runs operator op as front-end client c and checks its
	// answer.
	query(ctx context.Context, c int, op string) error
	update(ctx context.Context, add, rm *tuple) (ownerengine.UpdateStats, error)
	// finalState reads the union and its per-cell sums.
	finalState(ctx context.Context) ([]uint64, map[uint64]uint64, error)
	shareGen() prism.ShareGenStats
	peakHeldBytes() int64
	storeDir() string
	// backlog is the delta entries every server holds uncompacted.
	backlog() int
	// compact runs one synchronous compaction pass on every server.
	compact() error
	// startTrace turns span recording on, after warm-up.
	startTrace()
	layers(m *metrics, dl delta) error
	// writeTrace dumps the recorded spans as JSON.
	writeTrace(path string) error
	close()
}

// workloadDef is one named traffic mix over one deployment shape.
type workloadDef struct {
	name string
	why  string
	// readers is the closed-loop query client count; mix is what each
	// cycles through, every cycle in a fresh seeded order so the
	// clients' operators pair up at random rather than in a fixed
	// phase.
	readers int
	mix     []string
	// concurrentWriter runs the update writer beside the readers for
	// the whole window; otherwise the window is split, readers first,
	// then the writer alone for its last 1/trailShare.
	concurrentWriter bool
	// servers and cache describe the deployment for the run record
	// (cache names the sizes fields that apply); cache is "" for RAM
	// servers.
	servers int
	cache   string
	// setup wires the deployment; traced turns on the program's own
	// query tracing where the deployment hides its network.
	setup func(ctx context.Context, d *dataset, dir string, traced bool, tamper tamperFunc) (env, error)
}

var workloads = []workloadDef{
	{
		name: "mem-verify",
		why: "CPU-bound protocol path: owner vector build and recombine, gob codec, oblivious compute, " +
			"verification and announcer rounds; disk, cache, sharding, groups and gateway idle",
		readers: 2,
		mix:     []string{"psi", "psu", "count", "sum", "max"},
		servers: 3,
		setup: func(ctx context.Context, d *dataset, _ string, traced bool, tamper tamperFunc) (env, error) {
			return setupLocal(ctx, d, prism.Config{
				Verify: true, Threads: 1, MaxInflight: 2, EncodeWire: true, Trace: traced,
			}, tamper)
		},
	},
	{
		name: "disk-gateway",
		why: "larger than the cache: chunk reads, LRU eviction, TCP multiplexing, shard fan-out, " +
			"2-group merge and the gateway front tier on the blocking path; verification and announcer bypassed",
		readers: 2,
		mix:     gatewayMix,
		servers: 3 * gatewayGroups,
		cache:   "hot-chunk LRU of hot_chunk_budget_bytes per table per server; no delta threshold",
		setup: func(ctx context.Context, d *dataset, dir string, _ bool, tamper tamperFunc) (env, error) {
			return setupGateway(ctx, d, dir, 2, tamper, newRecorder())
		},
	},
	{
		name: "update-read",
		why: "writes beside reads: delta-log appends, merge-on-read patching and threshold compaction " +
			"stalls; a change trading read speed for update speed, or the reverse, shows here",
		readers:          1,
		mix:              []string{"psi", "psu", "count", "sum"},
		concurrentWriter: true,
		servers:          3,
		cache:            "unbounded hot-chunk cache (at least the working set); compaction at delta_max_entries",
		setup: func(ctx context.Context, d *dataset, dir string, traced bool, tamper tamperFunc) (env, error) {
			e, err := setupLocal(ctx, d, prism.Config{
				Threads: 1, MaxInflight: 2, DiskDir: dir, Trace: traced,
				ShardCells: d.sc.ShardCells, ChunkCells: d.sc.ShardCells, HotColumns: true,
				DeltaMaxEntries: d.sc.DeltaMax,
			}, tamper)
			if err != nil {
				return nil, err
			}
			// The writer runs beside the readers; see localEnv.liveWrites.
			e.liveWrites = true
			return e, nil
		},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// writePace is the pace of a writer beside readers: it starts one
// update per writePace (a paced closed loop). An unpaced writer made the
// CPU split between writer and readers, and the writer's goroutine
// placement, swing its latency by a third from run to run. A writer
// alone runs unpaced: idling between updates made every update pay a
// wake-up of both cores, which swung its latency from run to run more.
const writePace = 5 * time.Millisecond

// trailShare is the part of a read workload's window its trailing
// update burst takes.
const trailShare = 6

// setupRuns is how many times an untraced run sets the deployment up;
// setup_s is their median.
const setupRuns = 3

// flushPolicy is the share store's write path on every disk workload.
const flushPolicy = "tmp+rename, no fsync (reads come from the OS page cache)"

type result struct {
	workload   string
	seed       int64
	traced     bool
	correct    bool
	attempted  int
	failed     int
	mismatches int
	// liveAnomalies counts reads taken while a writer was updating that
	// disagreed with the static oracle; reported, not gated.
	liveAnomalies int64
	errors        []string
	m             *metrics
	record        map[string]any
	recordPath    string
}

func (r *result) fail(err error) {
	r.failed++
	if isMismatch(err) {
		r.mismatches++
	}
	if len(r.errors) < 10 {
		r.errors = append(r.errors, err.Error())
	}
}

// phase is one measured window over one deployment.
type phase struct {
	lat      *latencies
	reads    int
	elapsed  time.Duration
	updates  int
	writer   *writer
	setups   []float64
	gen      prism.ShareGenStats
	peakHeld int64
	store    int64
}

// run executes one benchmark run and returns its result; an error means
// the run could not be carried out at all. tamper, when set, rewrites
// answers before the oracle sees them (the smoke test's corruption).
func run(ctx context.Context, w workloadDef, sc scale, seed int64, window time.Duration, traced bool, out string, tamper tamperFunc) (*result, error) {
	res := &result{workload: w.name, seed: seed, traced: traced, m: newMetrics()}
	work, err := os.MkdirTemp(mkdir(out), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	d, err := generate(sc, w.name, seed)
	if err != nil {
		return nil, err
	}

	if !traced {
		ph, err := measure(ctx, w, d, work, "", window, setupRuns, tamper, res)
		if err != nil {
			return nil, err
		}
		endToEndMetrics(res.m, w, ph)
		res.recordRun(w, sc, ph, nil)
	} else {
		// Roofs and kernels first, in the same process.
		if err := roofProbes(res.m); err != nil {
			return nil, err
		}
		kernelProbes(res.m, int(sc.Domain))
		// An untraced and a traced half, each on a fresh set-up: their
		// qps ratio is the tracing overhead; the layer numbers come from
		// the traced half only. Odd seeds run the traced half first, so
		// drift by position (page cache, heap growth, host load) is not
		// always charged to tracing.
		tracePath := filepath.Join(mkdir(out), fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
		halves := []string{"", tracePath}
		if tracedFirst(seed) {
			halves[0], halves[1] = halves[1], halves[0]
		}
		var un, tr *phase
		for _, tp := range halves {
			ph, err := measure(ctx, w, d, work, tp, window/2, 1, tamper, res)
			if err != nil {
				return nil, err
			}
			if tp == "" {
				un = ph
			} else {
				tr = ph
			}
		}
		uq := float64(un.reads) / un.elapsed.Seconds()
		tq := float64(tr.reads) / tr.elapsed.Seconds()
		res.m.set("trace.untraced_qps", "1/s", uq)
		res.m.set("trace.traced_qps", "1/s", tq)
		res.m.set("trace.overhead_pct", "%", 100*(uq-tq)/uq)
		res.m.setPct("prism.max_p50_ms", un.lat.get("max"), 0.5)
		res.m.set("ownerengine.sharegen_s", "s", float64(tr.gen.BuildNS+tr.gen.SplitNS)/1e9)
		res.m.set("ownerengine.upload_s", "s", float64(tr.gen.UploadNS)/1e9)
		res.m.set("sharestore.store_mib", "MiB", float64(tr.store)/(1<<20))
		tr.writer.layerMedians(res.m)
		res.m.setPct("ownerengine.update_p50_ms", tr.lat.get("update"), 0.50)
		res.m.setPct("ownerengine.update_p99_ms", tr.lat.get("update"), 0.99)
		res.m.set("ownerengine.updates_per_s", "1/s", serviceRate(tr.lat.get("update")))
		res.recordRun(w, sc, tr, un)
	}
	res.correct = res.mismatches == 0
	path, err := res.writeRecord(out)
	if err != nil {
		return nil, err
	}
	res.recordPath = path
	return res, nil
}

// tracedFirst reports whether a traced run measures its traced half
// before its untraced one.
func tracedFirst(seed int64) bool { return seed%2 != 0 }

// measure sets the deployment up (setups times, keeping the last), warms
// it, then runs the read window and the writer, and checks the final
// state. With a tracePath it records spans, writes them there and fills
// the per-layer metrics into res.
func measure(ctx context.Context, w workloadDef, d *dataset, work, tracePath string, window time.Duration, setups int, tamper tamperFunc, res *result) (*phase, error) {
	traced := tracePath != ""
	ph := &phase{lat: newLatencies()}
	var e env
	for k := 0; k < setups; k++ {
		dir := filepath.Join(work, fmt.Sprintf("setup-%d", k))
		start := time.Now()
		ne, err := w.setup(ctx, d, dir, traced, tamper)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		ph.setups = append(ph.setups, time.Since(start).Seconds())
		if k < setups-1 {
			ne.close()
			os.RemoveAll(dir)
			continue
		}
		e = ne
	}
	defer func() {
		e.close()
		if dir := e.storeDir(); dir != "" {
			os.RemoveAll(dir)
			// Settle the deletion (journal commit, discards) here, not
			// in the next run's measured window.
			syscall.Sync()
		}
	}()
	ph.gen = e.shareGen()
	if dir := e.storeDir(); dir != "" {
		ph.store = dirBytes(dir)
		// The store writes without fsync; flush its set-up writes now so
		// their writeback does not land inside the measured window.
		syscall.Sync()
	}

	// Warm-up: one pass of the mix per client, checked like the rest.
	for c := 0; c < w.readers; c++ {
		for _, op := range w.mix {
			res.attempted++
			if err := e.query(ctx, c, op); err != nil {
				res.fail(err)
			}
		}
	}
	runtime.GC()

	wr := newWriter(d)
	ph.writer = wr
	if traced {
		e.startTrace()
	}
	before := takeSnap()
	stop := make(chan struct{})
	wdone := make(chan writerRun, 1)
	startWriter := func(pace time.Duration) {
		go func() {
			a, f := wr.run(ctx, e.update, ph.lat, pace, stop)
			wdone <- writerRun{a, f}
		}()
	}
	readWindow := window
	if w.concurrentWriter {
		startWriter(writePace)
	} else {
		readWindow -= window / trailShare
	}
	var mu sync.Mutex
	orders := make([]*opOrder, w.readers)
	for c := range orders {
		orders[c] = newOpOrder(w.mix, d.seed.Derive(fmt.Sprintf("client/%d", c)))
	}
	ph.reads, ph.elapsed = loop(w.readers, readWindow, ph.lat, func(c int) string {
		op := orders[c].next()
		if err := e.query(ctx, c, op); err != nil {
			mu.Lock()
			res.fail(err)
			mu.Unlock()
		}
		return op
	})
	res.attempted += ph.reads
	// The layer numbers span the read window (and, for a concurrent
	// writer, the updates beside it), not the trailing update burst.
	if w.concurrentWriter {
		close(stop)
		ph.wait(<-wdone, res)
	}
	after := takeSnap()
	if traced {
		if err := e.layers(res.m, delta{before, after}); err != nil {
			res.fail(mismatch{fmt.Errorf("trace sum check: %w", err)})
		}
		res.m.set("sharestore.delta_backlog_end", "count", float64(e.backlog()))
		if err := e.writeTrace(tracePath); err != nil {
			return nil, err
		}
	}
	if !w.concurrentWriter {
		runtime.GC()
		startWriter(0)
		time.Sleep(window / trailShare)
		close(stop)
		ph.wait(<-wdone, res)
	}
	ph.peakHeld = e.peakHeldBytes()
	if lw, ok := e.(interface{ liveAnomalies() int64 }); ok {
		res.liveAnomalies += lw.liveAnomalies()
	}

	// Final state: fingerprint parity across a synchronous compaction,
	// then the oracle replayed over the applied update history.
	res.attempted++
	if err := finalCheck(ctx, e, wr, tamper); err != nil {
		res.fail(err)
	}
	return ph, nil
}

// writerRun is what one writer pass did.
type writerRun struct{ n, failed int }

func (ph *phase) wait(wr writerRun, res *result) {
	ph.updates = wr.n
	res.attempted += wr.n
	for k := 0; k < wr.failed; k++ {
		res.fail(errors.New("update failed"))
	}
}

func finalCheck(ctx context.Context, e env, wr *writer, tamper tamperFunc) error {
	cells, sums, err := e.finalState(ctx)
	if err != nil {
		return fmt.Errorf("final read: %w", err)
	}
	if tamper != nil {
		a := &answer{cells: cells, sums: sums}
		tamper("final", a)
		cells, sums = a.cells, a.sums
	}
	if err := e.compact(); err != nil {
		return fmt.Errorf("compaction: %w", err)
	}
	cells2, sums2, err := e.finalState(ctx)
	if err != nil {
		return fmt.Errorf("final read after compaction: %w", err)
	}
	if a, b := fingerprint(cells, sums), fingerprint(cells2, sums2); a != b {
		return mismatch{fmt.Errorf("fingerprint %s before compaction, %s after", a, b)}
	}
	if err := wr.checkFinal(cells, sums); err != nil {
		return mismatch{err}
	}
	return nil
}

// endToEndMetrics derives the user-visible numbers from one phase.
func endToEndMetrics(m *metrics, w workloadDef, ph *phase) {
	m.set("setup_s", "s", median(ph.setups))
	m.set("qps", "1/s", float64(ph.reads)/ph.elapsed.Seconds())
	all := ph.lat.pooled(w.mix...)
	m.setPct("query_p50_ms", all, 0.50)
	m.setPct("query_p95_ms", all, 0.95)
	for _, op := range readOps {
		m.setPct(op+"_p50_ms", ph.lat.get(op), 0.50)
	}
	m.set("server_peak_mib", "MiB", float64(ph.peakHeld)/(1<<20))
}

// serviceRate is the update path's own rate: updates over the time spent
// inside them, from their latencies in ms. The writer's pace sets how
// often updates start, so a rate over its wall time would read the pace,
// not the program.
func serviceRate(ms []float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	return 1000 / mean(ms)
}

// recordRun keeps what the run was and what it counted.
func (r *result) recordRun(w workloadDef, sc scale, ph, untraced *phase) {
	ops := map[string]int{}
	for _, op := range append(append([]string(nil), w.mix...), "update") {
		ops[op] = len(ph.lat.get(op))
	}
	rec := map[string]any{
		"workload": w.name,
		"why":      w.why,
		"seed":     r.seed,
		"traced":   r.traced,
		"sizes":    sc,
		"loop": fmt.Sprintf("closed loop, %d reader(s), one writer %s", w.readers,
			map[bool]string{
				true:  fmt.Sprintf("starting an update every %v beside them", writePace),
				false: fmt.Sprintf("running updates back to back alone for the last 1/%d of the window", trailShare),
			}[w.concurrentWriter]),
		"setup_s_each":        ph.setups,
		"reads":               ph.reads,
		"read_window_s":       ph.elapsed.Seconds(),
		"updates":             ph.updates,
		"update_ms":           latSummary(ph.lat.get("update")),
		"updates_per_s":       serviceRate(ph.lat.get("update")),
		"op_counts":           ops,
		"samples":             r.m.samples,
		"live_read_anomalies": r.liveAnomalies,
		"errors":              r.errors,
		"metrics":             r.m.vals,
		"store_bytes":         ph.store,
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"go":                  runtime.Version(),
		"unused_metrics":      r.unusedMetrics(),
	}
	if w.cache != "" {
		rec["flush_policy"] = flushPolicy
		rec["cache"] = w.cache
		rec["per_server_working_set_bytes"] = ph.store / int64(w.servers)
	}
	if untraced != nil {
		rec["untraced_reads"] = untraced.reads
		rec["traced_half_first"] = tracedFirst(r.seed)
	}
	r.record = rec
}

// latSummary is the run record's view of one operation's latencies.
func latSummary(xs []float64) map[string]float64 {
	return map[string]float64{"n": float64(len(xs)), "mean": mean(xs),
		"p50": percentile(xs, 0.5), "p99": percentile(xs, 0.99), "max": percentile(xs, 1)}
}

// unusedMetrics lists the per-layer metrics this traced run had no
// reading for (their layer is idle on the workload); they print as 0.
func (r *result) unusedMetrics() []string {
	if !r.traced {
		return nil
	}
	var out []string
	for _, s := range perLayer {
		if _, ok := r.m.vals[s.name]; !ok {
			out = append(out, s.name)
		}
	}
	return out
}

func (r *result) writeRecord(out string) (string, error) {
	r.record["attempted"], r.record["failed"], r.record["mismatches"] = r.attempted, r.failed, r.mismatches
	r.record["failed_ratio"] = float64(r.failed) / float64(max(r.attempted, 1))
	r.record["correct"] = r.mismatches == 0
	b, err := json.MarshalIndent(r.record, "", "  ")
	if err != nil {
		return "", err
	}
	kind := "e2e"
	if r.traced {
		kind = "traced"
	}
	path := filepath.Join(mkdir(out), fmt.Sprintf("record-%s-%s-seed%d.json", r.workload, kind, r.seed))
	return path, os.WriteFile(path, b, 0o644)
}

func mkdir(dir string) string {
	os.MkdirAll(dir, 0o755)
	return dir
}
