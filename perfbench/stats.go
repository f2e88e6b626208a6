package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks, the definition numpy and Python's
// statistics.quantiles(method="inclusive") use. xs is not modified; an
// empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean is the geometric mean of positive values; an empty slice or any
// non-positive value yields 0, which the callers treat as "not measured".
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// classLatency is the workload latency figure: every class contributes its
// own p-th percentile, and the figure is the geometric mean over classes.
// Taking one percentile over all operations would land between the
// clusters of classes whose latencies differ by orders of magnitude; the
// per-class percentile does not. Classes are visited in sorted order so
// the floating-point result does not depend on map iteration.
func classLatency(byClass map[string][]float64, p float64) float64 {
	names := make([]string, 0, len(byClass))
	for c := range byClass {
		names = append(names, c)
	}
	sort.Strings(names)
	per := make([]float64, 0, len(names))
	for _, c := range names {
		per = append(per, percentile(byClass[c], p))
	}
	return geomean(per)
}
