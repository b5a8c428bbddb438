// Command perfbench is the repository's benchmark: it builds one
// workload from a seed, runs it in a closed loop for a fixed time,
// checks every answer against the plaintext oracle (internal/baseline)
// and prints one JSON line of metrics, end to end (untraced run) or per
// layer (traced run).
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload mem-verify --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"qps":{"value":19.2,"unit":"1/s"},...}}
//
// A human-readable table and the run record path go to standard error.
// The command exits 1 when any answer disagrees with the oracle.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	var (
		wl      = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Int64("seed", 1, "input generator seed")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: untraced run printing end-to-end metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the run record, traces and disk stores")
	)
	flag.Parse()
	w, ok := workloadByName(*wl)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(context.Background(), w, fullScale, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.report(os.Stderr)
	line, err := json.Marshal(res.output())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

// output is the contract line: exactly the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one.
func (r *result) output() map[string]any {
	names := endToEnd
	if r.traced {
		names = perLayer
	}
	ms := make(map[string]metric, len(names))
	for _, s := range names {
		v := r.m.vals[s.name]
		ms[s.name] = metric{Value: v.Value, Unit: s.unit}
	}
	return map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": ms}
}

// report prints every metric by name with its unit, and the sample
// count behind each percentile.
func (r *result) report(f *os.File) {
	names := make([]string, 0, len(r.m.vals))
	for n := range r.m.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "perfbench %s seed=%d traced=%v correct=%v attempted=%d failed=%d\n",
		r.workload, r.seed, r.traced, r.correct, r.attempted, r.failed)
	for _, n := range names {
		v := r.m.vals[n]
		extra := ""
		if k, ok := r.m.samples[n]; ok {
			extra = fmt.Sprintf("  (n=%d)", k)
		}
		fmt.Fprintf(f, "  %-42s %14.4f %s%s\n", n, v.Value, v.Unit, extra)
	}
	if r.liveAnomalies > 0 {
		fmt.Fprintf(f, "  live-read anomalies (reads overlapping an update that disagreed with the oracle): %d\n", r.liveAnomalies)
	}
	for _, e := range r.errors {
		fmt.Fprintln(f, "  error:", e)
	}
	if r.recordPath != "" {
		fmt.Fprintln(f, "  run record:", r.recordPath)
	}
}
