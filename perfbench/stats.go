package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// latencies collects per-operation wall times in milliseconds, keyed by
// operation name ("psi", "update", ...). Safe for concurrent use.
type latencies struct {
	mu  sync.Mutex
	ops map[string][]float64
}

func newLatencies() *latencies { return &latencies{ops: make(map[string][]float64)} }

func (l *latencies) add(op string, d time.Duration) {
	l.mu.Lock()
	l.ops[op] = append(l.ops[op], float64(d.Nanoseconds())/1e6)
	l.mu.Unlock()
}

// get returns a copy of one operation's samples.
func (l *latencies) get(op string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.ops[op]...)
}

// pooled returns every sample of the named operations together.
func (l *latencies) pooled(ops ...string) []float64 {
	var out []float64
	for _, op := range ops {
		out = append(out, l.get(op)...)
	}
	return out
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, or
// 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// median returns the middle value of xs (mean of the two middle values
// for even counts), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered-by-name set of reported numbers, plus the
// sample count behind each percentile for the run record.
type metrics struct {
	vals    map[string]metric
	samples map[string]int
}

func newMetrics() *metrics {
	return &metrics{vals: make(map[string]metric), samples: make(map[string]int)}
}

func (m *metrics) set(name, unit string, v float64) { m.vals[name] = metric{Value: v, Unit: unit} }

// setPct records a percentile of xs in ms together with its sample count.
func (m *metrics) setPct(name string, xs []float64, p float64) {
	m.set(name, "ms", percentile(xs, p))
	m.samples[name] = len(xs)
}
