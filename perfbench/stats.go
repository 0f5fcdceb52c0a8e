package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// quantile returns the q-quantile of vals by linear interpolation
// between order statistics. It sorts a copy.
func quantile(vals []int64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	return float64(s[lo]) + (pos-float64(lo))*float64(s[lo+1]-s[lo])
}

// median returns the median of vals (0 for none).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(vals, n=4) does (the "exclusive" method), so the
// steadiness report reads like the acceptance check.
func quartiles(vals []float64) (q1, q3 float64) {
	s := slices.Clone(vals)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// weighted is one latency sample with the number of requests it stands
// for (a client's completed requests over the samples it kept).
type weighted struct {
	v int64
	w float64
}

// pooled merges per-client latency stores into weighted samples.
func pooled(stores []*reservoir) []weighted {
	var out []weighted
	for _, r := range stores {
		if len(r.vals) == 0 {
			continue
		}
		w := float64(r.seen) / float64(len(r.vals))
		for _, v := range r.vals {
			out = append(out, weighted{v, w})
		}
	}
	slices.SortFunc(out, func(a, b weighted) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	return out
}

// percentile returns the weighted q-quantile (nearest rank) of sorted
// samples.
func percentile(s []weighted, q float64) int64 {
	total := 0.0
	for _, x := range s {
		total += x.w
	}
	cum := 0.0
	for _, x := range s {
		cum += x.w
		if cum >= q*total {
			return x.v
		}
	}
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1].v
}

// Latency histogram: four buckets per octave from 1 µs.
const (
	histPerOctave = 4
	histBuckets   = 4 * 24 // up to 2^24 µs ≈ 16.8 s
)

// histBucket returns the bucket of a latency in ns.
func histBucket(ns int64) int {
	us := float64(ns) / 1e3
	if us <= 1 {
		return 0
	}
	b := int(math.Floor(histPerOctave * math.Log2(us)))
	return min(b, histBuckets-1)
}

// histLow returns bucket b's lower edge in µs.
func histLow(b int) float64 { return math.Pow(2, float64(b)/histPerOctave) }

// histogram returns the weighted request count per bucket.
func histogram(s []weighted) []float64 {
	h := make([]float64, histBuckets)
	for _, x := range s {
		h[histBucket(x.v)] += x.w
	}
	return h
}

// formatHist renders the non-empty range of a histogram, marking the
// buckets that hold p50 and p99, and returns the share of requests in
// each marked bucket — a percentile in a near-empty bucket sits in a gap
// between modes.
func formatHist(h []float64, p50, p99 int64) string {
	lo, hi := -1, -1
	total := 0.0
	for b, c := range h {
		if c > 0 {
			if lo < 0 {
				lo = b
			}
			hi = b
		}
		total += c
	}
	if lo < 0 {
		return "  (empty)\n"
	}
	b50, b99 := histBucket(p50), histBucket(p99)
	var sb strings.Builder
	peak := slices.Max(h)
	for b := lo; b <= hi; b++ {
		mark := ""
		if b == b50 {
			mark += " <- p50"
		}
		if b == b99 {
			mark += " <- p99"
		}
		bar := strings.Repeat("#", int(math.Round(40*h[b]/peak)))
		fmt.Fprintf(&sb, "  %10.1f us %6.2f%% %-40s%s\n", histLow(b), 100*h[b]/total, bar, mark)
	}
	fmt.Fprintf(&sb, "  p50 bucket holds %.2f%% of requests, p99 bucket %.2f%%\n", 100*h[b50]/total, 100*h[b99]/total)
	return sb.String()
}
