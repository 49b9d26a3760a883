package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation (0 when empty).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// procSnap is a point-in-time reading of the process counters.
type procSnap struct {
	cpu                      time.Duration
	allocs, allocBytes       uint64
	gcCPU, idleCPU, totalCPU float64
}

func readProc() procSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return procSnap{
		cpu:        cpuTime(),
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		idleCPU:    s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// heapPeak follows the live heap (the bytes the last GC found reachable)
// until stop is called, and keeps its largest growth over the reading at
// start in each of equal windows of the phase. Read after a forced GC, that
// baseline holds the generated inputs and the phase's preallocated
// bookkeeping, so the growth is what the stack holds for queued and
// in-flight work, for its caches, and as garbage allocated while a GC marks.
type heapPeak struct {
	done  chan struct{}
	wg    sync.WaitGroup
	base  uint64
	peaks []uint64 // per window
}

func startHeapPeak(length time.Duration, windows int) *heapPeak {
	h := &heapPeak{done: make(chan struct{}), peaks: make([]uint64, windows)}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() uint64 {
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	h.base = read()
	for i := range h.peaks {
		h.peaks[i] = h.base
	}
	start := time.Now()
	sample := func() {
		i := int(time.Since(start) * time.Duration(windows) / length)
		i = min(i, windows-1)
		h.peaks[i] = max(h.peaks[i], read())
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.done:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return h
}

// stop ends sampling and returns each window's peak growth in bytes.
func (h *heapPeak) stop() []float64 {
	close(h.done)
	h.wg.Wait()
	out := make([]float64, len(h.peaks))
	for i, p := range h.peaks {
		out[i] = float64(p - h.base)
	}
	return out
}

// settleGoroutines waits up to limit for the goroutine count to fall to
// want, and returns the last count seen.
func settleGoroutines(want int, limit time.Duration) int {
	deadline := time.Now().Add(limit)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}
