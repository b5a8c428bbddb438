package main

import "prism/internal/telemetry"

// snap is one reading of the program's telemetry registry
// (telemetry.Default.Snapshot): counters and gauges as numbers,
// histograms as {count, sum}, labelled families as label → value.
type snap map[string]any

func takeSnap() snap { return snap(telemetry.Default.Snapshot()) }

// points returns the series of one name: the bare value for unlabelled
// metrics, or every label's value when label is "*".
func (s snap) points(name, label string) []any {
	v, ok := s[name]
	if !ok {
		return nil
	}
	fam, isFam := v.(map[string]any)
	if !isFam {
		return []any{v}
	}
	if _, isHist := fam["count"]; isHist && label == "" {
		return []any{v}
	}
	if label == "*" {
		out := make([]any, 0, len(fam))
		for _, p := range fam {
			out = append(out, p)
		}
		return out
	}
	if p, ok := fam[label]; ok {
		return []any{p}
	}
	return nil
}

// value sums counter or gauge readings.
func (s snap) value(name, label string) float64 {
	var t float64
	for _, p := range s.points(name, label) {
		if f, ok := p.(float64); ok {
			t += f
		}
	}
	return t
}

// hist sums histogram count and sum readings.
func (s snap) hist(name, label string) (count, sum float64) {
	for _, p := range s.points(name, label) {
		h, ok := p.(map[string]any)
		if !ok {
			continue
		}
		switch c := h["count"].(type) {
		case uint64:
			count += float64(c)
		case float64:
			count += c
		}
		if f, ok := h["sum"].(float64); ok {
			sum += f
		}
	}
	return count, sum
}

// delta is the change between two readings.
type delta struct{ before, after snap }

func (d delta) value(name, label string) float64 {
	return d.after.value(name, label) - d.before.value(name, label)
}

func (d delta) hist(name, label string) (count, sum float64) {
	c1, s1 := d.before.hist(name, label)
	c2, s2 := d.after.hist(name, label)
	return c2 - c1, s2 - s1
}

// meanMS is the mean observation of a seconds histogram over the delta,
// in ms.
func (d delta) meanMS(name, label string) float64 {
	c, s := d.hist(name, label)
	if c == 0 {
		return 0
	}
	return 1000 * s / c
}
