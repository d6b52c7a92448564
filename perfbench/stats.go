package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// dist summarizes a sample of timings (or any values): the median and the
// 99th percentile, with the sample count. p99 is only meaningful with at
// least ten samples beyond it (n >= 1000); supportedPct says which
// percentile the sample does support.
type dist struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	// SupportedPct is the highest percentile with at least ten samples
	// beyond it (0 when n < 20).
	SupportedPct float64 `json:"supported_pct"`
	PSupported   float64 `json:"p_supported"`
}

func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s)}
	if len(s) == 0 {
		return d
	}
	d.P50 = quantile(s, 0.5)
	d.P99 = quantile(s, 0.99)
	if len(s) >= 20 {
		d.SupportedPct = 100 * (1 - 10/float64(len(s)))
		d.PSupported = quantile(s, d.SupportedPct/100)
	}
	return d
}

// quantile interpolates linearly between the order statistics of a sorted
// sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// heapSampler samples the live Go heap (runtime/metrics
// /gc/heap/live:bytes, updated at every GC) while it runs.
type heapSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		h.samples = append(h.samples, float64(sample[0].Value.Uint64())/1e6)
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in MB (10^6 bytes),
// taken as the 95th percentile of the samples: the single highest sample
// depends on which transient buffers a GC happened to catch.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	s := append([]float64(nil), h.samples...)
	sort.Float64s(s)
	return quantile(s, 0.95)
}

// runtimeCounters is a snapshot of the Go runtime's allocation and GC CPU
// counters; the difference of two snapshots gives per-operation figures.
type runtimeCounters struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// goMetrics turns the counter delta over ops operations into the go.*
// per-layer metrics.
func goMetrics(before, after runtimeCounters, ops int64, out map[string]float64) {
	if ops < 1 {
		ops = 1
	}
	out["go.alloc_kb_per_op"] = float64(after.allocBytes-before.allocBytes) / 1e3 / float64(ops)
	out["go.allocs_per_op"] = float64(after.allocObjects-before.allocObjects) / float64(ops)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		out["go.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
