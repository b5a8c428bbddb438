package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"prism/internal/ownerengine"
	"prism/internal/prg"
)

// writer drives single-tuple updates for owner 0, alternating an
// append of a fresh tuple (the update fast path) with the removal of a
// loaded tuple (the removal-match scan). It never touches an
// intersection cell and never appends a cell owner 1 holds, so the
// intersection, its count, sums and maxima stay fixed while it runs and
// concurrent reads remain checkable against the static oracle. It keeps
// the applied history so the final state can be checked against the
// oracle replayed over it.
type writer struct {
	d        *dataset
	rng      *prg.PRG
	cur      map[uint64]uint64 // owner 0's tuples now: cell → DT
	blocked  map[uint64]bool   // cells an append must avoid
	removals []uint64          // owner 0's original non-common cells, shuffled
	step     int

	stats []ownerengine.UpdateStats // per applied update, for the layer medians
}

// apply performs one change through the program; add and rm are the
// single tuples (cell, value) to insert or delete, at most one non-nil.
type applyFunc func(ctx context.Context, add, rm *tuple) (ownerengine.UpdateStats, error)

type tuple struct{ cell, val uint64 }

func newWriter(d *dataset) *writer {
	w := &writer{
		d:       d,
		rng:     prg.New(d.seed.Derive("updates")),
		cur:     make(map[uint64]uint64, len(d.cells[0])),
		blocked: make(map[uint64]bool),
	}
	inter := make(map[uint64]bool, len(d.intersection))
	for _, c := range d.intersection {
		inter[c] = true
		w.blocked[c] = true
	}
	for _, c := range d.cells[1] {
		w.blocked[c] = true
	}
	for i, c := range d.cells[0] {
		w.cur[c] = d.vals[0][i]
		if !inter[c] {
			w.removals = append(w.removals, c)
		}
	}
	for i := len(w.removals) - 1; i > 0; i-- {
		j := int(w.rng.Uint64n(uint64(i + 1)))
		w.removals[i], w.removals[j] = w.removals[j], w.removals[i]
	}
	return w
}

// next picks the next change: even steps append, odd steps remove.
func (w *writer) next() (add, rm *tuple) {
	defer func() { w.step++ }()
	if w.step%2 == 1 && len(w.removals) > 0 {
		c := w.removals[0]
		w.removals = w.removals[1:]
		return nil, &tuple{c, w.cur[c]}
	}
	for {
		c := w.rng.Uint64n(w.d.sc.Domain)
		if _, held := w.cur[c]; held || w.blocked[c] {
			continue
		}
		return &tuple{c, 1 + w.rng.Uint64n(maxValue)}, nil
	}
}

// run issues updates one at a time until stop closes, starting them no
// closer together than pace (a paced closed loop: an update that
// overruns its slot delays the next start, never overlaps it; pace 0
// runs them back to back), and times each into lat under "update". It
// returns the number attempted and failed.
func (w *writer) run(ctx context.Context, apply applyFunc, lat *latencies, pace time.Duration, stop <-chan struct{}) (attempted, failed int) {
	next := time.Now()
	for {
		if wait := time.Until(next); wait > 0 {
			select {
			case <-stop:
				return attempted, failed
			case <-time.After(wait):
			}
		}
		select {
		case <-stop:
			return attempted, failed
		default:
		}
		next = next.Add(pace)
		if now := time.Now(); next.Before(now) {
			next = now
		}
		add, rm := w.next()
		start := time.Now()
		st, err := apply(ctx, add, rm)
		lat.add("update", time.Since(start))
		attempted++
		if err != nil {
			failed++
			continue
		}
		w.commit(add, rm)
		w.stats = append(w.stats, st)
	}
}

// commit replays one applied change onto owner 0's plaintext state.
func (w *writer) commit(add, rm *tuple) {
	if add != nil {
		w.cur[add.cell] = add.val
	}
	if rm != nil {
		delete(w.cur, rm.cell)
	}
}

// replayed returns the dataset as the applied history leaves it, with
// its oracle recomputed.
func (w *writer) replayed() *dataset {
	nd := &dataset{sc: w.d.sc, seed: w.d.seed, cells: append([][]uint64(nil), w.d.cells...), vals: append([][]uint64(nil), w.d.vals...)}
	nd.cells[0], nd.vals[0] = nil, nil
	for c, v := range w.cur {
		nd.cells[0] = append(nd.cells[0], c)
		nd.vals[0] = append(nd.vals[0], v)
	}
	nd.computeOracle()
	return nd
}

// layerMedians reports the owner engine's update phases in ms.
func (w *writer) layerMedians(m *metrics) {
	var b, s, u []float64
	for _, st := range w.stats {
		b = append(b, float64(st.BuildNS)/1e6)
		s = append(s, float64(st.SplitNS)/1e6)
		u = append(u, float64(st.UploadNS)/1e6)
	}
	m.set("ownerengine.update_build_ms", "ms", median(b))
	m.set("ownerengine.update_split_ms", "ms", median(s))
	m.set("ownerengine.update_upload_ms", "ms", median(u))
}

// checkFinal compares a final PSU and PSU Sum reading against the
// oracle replayed over the applied history.
func (w *writer) checkFinal(union []uint64, sums map[uint64]uint64) error {
	nd := w.replayed()
	if err := sameCells("final psu", union, nd.union); err != nil {
		return err
	}
	return sameSums("final psu sum", sums, nd.unionSums())
}

// loop is a closed-loop client pool: each of clients goroutines runs
// op(client) back to back until the deadline, timing each call into lat
// under the name op returns. It returns the completed call count and
// the elapsed wall time.
func loop(clients int, window time.Duration, lat *latencies, op func(client int) string) (done int, elapsed time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				name := op(c)
				lat.add(name, time.Since(t0))
				mu.Lock()
				done++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return done, time.Since(start)
}

// opOrder deals one client's operators: each cycle through the mix in
// a fresh seeded order. One client goroutine owns it.
type opOrder struct {
	mix  []string
	rng  *prg.PRG
	deck []string
}

func newOpOrder(mix []string, seed prg.Seed) *opOrder {
	return &opOrder{mix: mix, rng: prg.New(seed)}
}

func (o *opOrder) next() string {
	if len(o.deck) == 0 {
		o.deck = append(o.deck, o.mix...)
		for i := len(o.deck) - 1; i > 0; i-- {
			j := int(o.rng.Uint64n(uint64(i + 1)))
			o.deck[i], o.deck[j] = o.deck[j], o.deck[i]
		}
	}
	op := o.deck[0]
	o.deck = o.deck[1:]
	return op
}

// errf formats a failure with the operation it came from.
func errf(op string, err error) error { return fmt.Errorf("%s: %w", op, err) }
