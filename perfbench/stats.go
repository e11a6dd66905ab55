package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile
// before it is reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// and how many samples lie strictly beyond its rank.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	k := int(math.Ceil(p*float64(n))) - 1
	k = max(0, min(n-1, k))
	return sorted[k], n - 1 - k
}

// tailPercentile is percentile reported only where at least minBeyond
// samples lie beyond it.
func tailPercentile(sorted []float64, p float64) (float64, bool) {
	v, beyond := percentile(sorted, p)
	return v, beyond >= minBeyond
}

// median returns the middle value of xs (the mean of the middle two for
// an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapSampler records the peak Go heap in use (live and not yet swept
// objects) while it runs, without stopping the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// calibration describes the host a run measured on: the time of a fixed
// single-goroutine spin loop, and the throughput of two goroutines
// spinning at once relative to one (2 on two free cores, 1 on one).
type calibration struct {
	SpinMS      float64 `json:"spin_ms"`
	Parallelism float64 `json:"parallelism_2v1"`
}

const spinIters = 20_000_000

var spinSink uint64

func spin() uint64 {
	x := uint64(88172645463325252)
	for range spinIters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// calibrate times spin alone and two spins at once, three times each,
// and keeps the medians.
func calibrate() calibration {
	var one, two []float64
	for range 3 {
		t := time.Now()
		spinSink += spin()
		one = append(one, time.Since(t).Seconds())

		t = time.Now()
		var wg sync.WaitGroup
		var mu sync.Mutex
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := spin()
				mu.Lock()
				spinSink += x
				mu.Unlock()
			}()
		}
		wg.Wait()
		two = append(two, time.Since(t).Seconds())
	}
	t1, t2 := median(one), median(two)
	return calibration{SpinMS: t1 * 1e3, Parallelism: 2 * t1 / t2}
}
