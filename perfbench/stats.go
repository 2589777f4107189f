package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. NaN when xs is empty.
func quantile[T int64 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(lo)
	return float64(xs[lo])*(1-frac) + float64(xs[lo+1])*frac
}

func median[T int64 | float64](xs []T) float64 { return quantile(xs, 0.5) }

// medians returns the median of each row.
func medians(rows [][]float64) []float64 {
	out := make([]float64, len(rows))
	for i, row := range rows {
		out[i] = median(row)
	}
	return out
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// setupWarmup set-up repetitions run first and are not counted.
const setupWarmup = 2

// setupSamples collects a run's set-up repetitions: set-up time, the
// connect + close lifecycle time, and the objects that lifecycle
// allocated.
type setupSamples struct {
	seen                int
	setup, life, allocs []float64
}

func (s *setupSamples) add(setup, life time.Duration, allocs uint64) {
	if s.seen++; s.seen <= setupWarmup {
		return
	}
	s.setup = append(s.setup, setup.Seconds())
	s.life = append(s.life, life.Seconds())
	s.allocs = append(s.allocs, float64(allocs))
}

// histogram counts latencies (ns) in log-linear buckets: exact below
// 2^subBits ns, then 2^subBits buckets per power of two, so a quantile is
// within 1% of the true value. Its memory is fixed, so recording does not
// grow the heap the benchmark measures. Safe for concurrent use.
type histogram struct {
	counts [64 << subBits]atomic.Uint64
}

const subBits = 7

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)<<subBits + int(v>>shift) - 1<<subBits
}

// bucketLow is the smallest value of bucket i; bucketLow(i+1) bounds it.
func bucketLow(i int) float64 {
	if i < 1<<subBits {
		return float64(i)
	}
	shift := i>>subBits - 1
	return float64(uint64(i&(1<<subBits-1)+1<<subBits) << shift)
}

func (h *histogram) record(d time.Duration) {
	h.counts[bucketOf(uint64(max(d, 0)))].Add(1)
}

func (h *histogram) count() int64 {
	var n int64
	for i := range h.counts {
		n += int64(h.counts[i].Load())
	}
	return n
}

// quantile interpolates the q-quantile within its bucket. NaN when empty.
func (h *histogram) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return math.NaN()
	}
	rank := q * float64(n-1)
	var seen float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c > 0 && seen+c > rank {
			lo, hi := bucketLow(i), bucketLow(i+1)
			return lo + (hi-lo)*(rank-seen+0.5)/c
		}
		seen += c
	}
	return bucketLow(len(h.counts) - 1)
}

// tally counts checked operations and correctness violations, and keeps
// the first few violation messages for the report.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu    sync.Mutex
	first []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.first) < 5 {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// mallocs returns the number of heap objects allocated so far.
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples the live heap: the bytes a forced garbage collection
// finds reachable, taken while the workload's instances are open. The
// peak is the median of the samples, so one unlucky sample does not set
// it.
type heapPeak struct{ samples []float64 }

func (h *heapPeak) sample() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.samples = append(h.samples, float64(s[0].Value.Uint64()))
}

// mb returns the peak in MB.
func (h *heapPeak) mb() float64 { return median(h.samples) / (1 << 20) }
