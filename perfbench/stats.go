package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile for
// it to be reported: a p99 resting on fewer is one slow outlier, not a
// tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of
// sorted, and false when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	k := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if n-1-k < minBeyond {
		return 0, false
	}
	return sorted[k], true
}

// latencyChunks pools latency samples (ms) into chunks of probeSize and
// keeps only each closed chunk's median and p99. The open chunk is the
// only buffer of samples, so the benchmark's own bookkeeping stays a
// fixed size: it neither swells the live heap the run measures nor
// grows with the scanner's throughput. A partial chunk at the end is
// dropped.
type latencyChunks struct {
	open       []float64
	p50s, p99s []float64
}

func newLatencyChunks() *latencyChunks {
	return &latencyChunks{open: make([]float64, 0, probeSize)}
}

func (c *latencyChunks) add(v float64) {
	c.open = append(c.open, v)
	if len(c.open) < probeSize {
		return
	}
	sort.Float64s(c.open)
	c.p50s = append(c.p50s, c.open[len(c.open)/2])
	if p, ok := percentile(c.open, 0.99); ok {
		c.p99s = append(c.p99s, p)
	}
	c.open = c.open[:0]
}

// closed returns the number of closed chunks.
func (c *latencyChunks) closed() int { return len(c.p50s) }

// median returns the middle of xs (the mean of the two middles for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowerQuartile returns the first quartile of xs, interpolating
// between the two nearest samples; xs is not modified.
func lowerQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := 0.25 * float64(len(s)-1)
	i := int(pos)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
