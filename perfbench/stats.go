package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported p99 for the tail
// to count as measured rather than guessed.
const minBeyond = 10

// minTailSamples is the smallest sample count that leaves minBeyond samples
// beyond the nearest-rank p99 (n - ceil(0.99 n) >= 10).
const minTailSamples = 1000

// dist summarizes one timing stream from its sorted raw samples.
type dist struct {
	N   int
	P50 float64
	P95 float64
	P99 float64
	// Beyond counts samples strictly greater than P99.
	Beyond int
}

// quantile is the nearest-rank quantile of an ascending slice: the smallest
// sample with at least p of the samples at or below it.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// summarize sorts a copy of samples and reads p50, p95, p99 and the tail
// count.
func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: quantile(s, 0.50), P95: quantile(s, 0.95), P99: quantile(s, 0.99)}
	d.Beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > d.P99 })
	return d
}

// tailMeasured reports whether the p99 has at least minBeyond samples
// beyond it.
func (d dist) tailMeasured() bool { return d.Beyond >= minBeyond }

func (d dist) String() string {
	return fmt.Sprintf("n=%d beyond_p99=%d", d.N, d.Beyond)
}

// quantileOf is the nearest-rank quantile of unsorted values.
func quantileOf(vals []float64, p float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, p)
}

func median(vals []float64) float64 { return quantileOf(vals, 0.5) }

func mean(vals []float64) float64 {
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return ratio(sum, float64(len(vals)))
}

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// liveHeap forces a GC cycle and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// allocs reads the process's cumulative allocation count and bytes. The
// read stops the world, so it brackets batches of calls, never single hot
// calls on the timed path.
func allocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// gcSample is the cumulative GC state runtime.gc_* metrics difference.
type gcSample struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

var gcMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return gcSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), cycles: s[2].Value.Uint64()}
}

// since is the GC work between an earlier sample a and g.
func (g gcSample) since(a gcSample) gcSample {
	return gcSample{gcCPU: g.gcCPU - a.gcCPU, totalCPU: g.totalCPU - a.totalCPU, cycles: g.cycles - a.cycles}
}

func (g *gcSample) add(o gcSample) {
	g.gcCPU += o.gcCPU
	g.totalCPU += o.totalCPU
	g.cycles += o.cycles
}

// fraction is the share of CPU time the GC took.
func (g gcSample) fraction() float64 { return ratio(g.gcCPU, g.totalCPU) }
