package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer absent from a workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// processCPU is the process's user+system CPU time from getrusage.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the GC CPU and cumulative allocation counters.
type runtimeSample struct {
	gcCPU, allocBytes float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{gcCPU: s[0].Value.Float64(), allocBytes: float64(s[1].Value.Uint64())}
}

// sampler polls HeapInuse and caller-supplied gauges every period until
// stopped, keeping the peak heap and every gauge sample.
type sampler struct {
	peakHeap atomic.Uint64
	stop     chan struct{}
	done     chan struct{}

	mu     sync.Mutex
	gauges []float64
}

func startSampler(period time.Duration, gauge func() []float64) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > s.peakHeap.Load() {
				s.peakHeap.Store(ms.HeapInuse)
			}
			if gauge != nil {
				g := gauge()
				s.mu.Lock()
				s.gauges = append(s.gauges, g...)
				s.mu.Unlock()
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for its goroutine to end.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

func (s *sampler) peakHeapMB() float64 { return float64(s.peakHeap.Load()) / (1 << 20) }

// mark returns how many gauge values have been sampled so far.
func (s *sampler) mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.gauges)
}

// gaugesBetween copies the gauge values sampled between two marks.
func (s *sampler) gaugesBetween(from, to int) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.gauges[from:to]...)
}
