package main

import (
	"fmt"
	"math"
	"sort"
)

// fastest returns the element-wise minimum over passes. Every pass replays
// the same requests, so element i is the same work in each of them, and
// interference on a shared box only ever adds time: the minimum is the
// best estimate of what the work costs. All passes must have one length.
func fastest(passes [][]float64) ([]float64, error) {
	if len(passes) == 0 {
		return nil, fmt.Errorf("agg: no passes")
	}
	out := append([]float64(nil), passes[0]...)
	for p, pass := range passes[1:] {
		if len(pass) != len(out) {
			return nil, fmt.Errorf("agg: pass %d has %d elements, pass 0 has %d", p+1, len(pass), len(out))
		}
		for i, v := range pass {
			if v < out[i] {
				out[i] = v
			}
		}
	}
	return out, nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// percentile returns the nearest-rank q-quantile (q in [0,1]) of v, 0 for
// an empty slice. v is not modified.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// minOf returns the smallest element of v (0 when empty).
func minOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// spread is (max-min)/min over the per-pass values of one metric: how far
// the passes of a single run disagreed.
func spread(v []float64) float64 {
	lo := minOf(v)
	if lo <= 0 {
		return 0
	}
	hi := lo
	for _, x := range v {
		if x > hi {
			hi = x
		}
	}
	return (hi - lo) / lo
}
