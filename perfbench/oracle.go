package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"prism/internal/baseline"
	"prism/internal/prg"
	"prism/internal/workload"
)

// scale fixes the input sizes every workload shares; only the seed
// varies between runs. The smoke test runs the same code at tinyScale.
type scale struct {
	Owners     int    `json:"owners"`
	Domain     uint64 `json:"domain_cells"`
	Keys       int    `json:"keys_per_owner"`
	Common     int    `json:"common_keys"`
	ShardCells uint64 `json:"shard_cells"` // shard and chunk size of the sharded workloads
	HotBytes   uint64 `json:"hot_chunk_budget_bytes"`
	DeltaMax   int    `json:"delta_max_entries"`
}

var fullScale = scale{
	Owners: 10, Domain: 250_000, Keys: 25_000, Common: 16,
	ShardCells: 64 << 10, HotBytes: 4 << 20, DeltaMax: 256,
}

var tinyScale = scale{
	Owners: 3, Domain: 4096, Keys: 400, Common: 4,
	ShardCells: 1024, HotBytes: 8 << 10, DeltaMax: 16,
}

const (
	maxValue  = 1000
	aggCol    = "DT"
	tableName = "main"
)

// dataset is the generated input plus the plaintext oracle computed
// once from it with internal/baseline.
type dataset struct {
	sc    scale
	seed  prg.Seed
	cells [][]uint64 // per owner, one tuple per cell
	vals  [][]uint64 // per owner, DT parallel to cells

	// The oracle.
	intersection []uint64 // sorted
	union        []uint64 // sorted
	sums         map[uint64]uint64
	maxAt        map[uint64]uint64 // per intersection cell
	maxOwners    map[uint64][]int  // owners holding maxAt
	globalMax    uint64
}

func generate(sc scale, workloadName string, seed int64) (*dataset, error) {
	s := prg.SeedFromString(fmt.Sprintf("perfbench/%s/%d", workloadName, seed))
	owners, err := workload.Generate(workload.Config{
		Owners:       sc.Owners,
		DomainSize:   sc.Domain,
		KeysPerOwner: sc.Keys,
		CommonKeys:   sc.Common,
		MaxValue:     maxValue,
		Seed:         s.Derive("data"),
	})
	if err != nil {
		return nil, err
	}
	d := &dataset{sc: sc, seed: s}
	for _, o := range owners {
		d.cells = append(d.cells, o.Cells)
		d.vals = append(d.vals, o.Aggs[aggCol])
	}
	d.computeOracle()
	return d, nil
}

func (d *dataset) valueMaps() []map[uint64]uint64 {
	out := make([]map[uint64]uint64, len(d.cells))
	for j := range d.cells {
		out[j] = make(map[uint64]uint64, len(d.cells[j]))
		for i, c := range d.cells[j] {
			out[j][c] = d.vals[j][i]
		}
	}
	return out
}

func (d *dataset) computeOracle() {
	vm := d.valueMaps()
	d.intersection = sorted(baseline.PlaintextIntersection(d.cells))
	d.union = sorted(baseline.PlaintextUnion(d.cells))
	d.sums = baseline.PlaintextSum(d.cells, vm)
	d.maxAt = make(map[uint64]uint64, len(d.intersection))
	d.maxOwners = make(map[uint64][]int, len(d.intersection))
	d.globalMax = 0
	for _, c := range d.intersection {
		var best uint64
		for j := range vm {
			best = max(best, vm[j][c])
		}
		d.maxAt[c] = best
		for j := range vm {
			if vm[j][c] == best {
				d.maxOwners[c] = append(d.maxOwners[c], j)
			}
		}
		d.globalMax = max(d.globalMax, best)
	}
}

// unionSums is the oracle for a PSU Sum: per union cell, the total of
// the owners' values there.
func (d *dataset) unionSums() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(d.union))
	for j := range d.cells {
		for i, c := range d.cells[j] {
			out[c] += d.vals[j][i]
		}
	}
	return out
}

func sorted(xs []uint64) []uint64 {
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// answer is one query's outcome in backend-neutral form.
type answer struct {
	cells     []uint64
	count     int
	sums      map[uint64]uint64
	maxAt     map[uint64]uint64
	maxOwners map[uint64][]int
	global    uint64
}

// check compares one answer of op against the oracle.
func (d *dataset) check(op string, a *answer) error {
	switch op {
	case "psi":
		return sameCells("psi", a.cells, d.intersection)
	case "psu":
		return sameCells("psu", a.cells, d.union)
	case "count":
		if a.count != len(d.intersection) {
			return fmt.Errorf("count: got %d, oracle %d", a.count, len(d.intersection))
		}
		return nil
	case "sum":
		if err := sameCells("sum", a.cells, d.intersection); err != nil {
			return err
		}
		return sameSums("sum", a.sums, d.sums)
	case "max":
		if err := sameCells("max", a.cells, d.intersection); err != nil {
			return err
		}
		if err := sameSums("max", a.maxAt, d.maxAt); err != nil {
			return err
		}
		for c, want := range d.maxOwners {
			if fmt.Sprint(sortedInts(a.maxOwners[c])) != fmt.Sprint(want) {
				return fmt.Errorf("max: owners at cell %d: got %v, oracle %v", c, a.maxOwners[c], want)
			}
		}
		if a.global != d.globalMax {
			return fmt.Errorf("max: global %d, oracle %d", a.global, d.globalMax)
		}
		return nil
	}
	return fmt.Errorf("no oracle for op %q", op)
}

func sameCells(op string, got, want []uint64) error {
	g := sorted(got)
	if len(g) != len(want) {
		return fmt.Errorf("%s: %d cells, oracle %d", op, len(g), len(want))
	}
	for i := range g {
		if g[i] != want[i] {
			return fmt.Errorf("%s: cell %d differs from oracle (%d vs %d)", op, i, g[i], want[i])
		}
	}
	return nil
}

func sameSums(op string, got, want map[uint64]uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, oracle %d", op, len(got), len(want))
	}
	for c, w := range want {
		if g, ok := got[c]; !ok || g != w {
			return fmt.Errorf("%s: value at cell %d is %d, oracle %d", op, c, g, w)
		}
	}
	return nil
}

func sortedInts(xs []int) []int {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s
}

// fingerprint hashes a set answer and its per-cell values canonically,
// for parity checks between two readings of the same state.
func fingerprint(cells []uint64, vals map[uint64]uint64) string {
	h := sha256.New()
	var buf [8]byte
	for _, c := range sorted(cells) {
		binary.LittleEndian.PutUint64(buf[:], c)
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], vals[c])
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
