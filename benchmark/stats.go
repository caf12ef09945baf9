package main

import (
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(i)
	return xs[i] + frac*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// div returns a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPeak samples the live heap the last garbage collection found every
// few milliseconds and keeps the highest reading: the most memory the
// run's reachable objects held at once, without the garbage whose amount
// depends on when collections happen to run. runtime/metrics reads it
// without stopping the world.
type heapPeak struct {
	stop chan struct{}
	once sync.Once
	done sync.WaitGroup
	peak uint64
}

const heapSampleEvery = 5 * time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			rtmetrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// MB stops sampling and returns the peak in MiB. It may be called more
// than once.
func (h *heapPeak) MB() float64 {
	h.once.Do(func() { close(h.stop) })
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// window is a measurement window cut into slices of about a second.
// Rates, costs and medians are taken per slice and reported as the median
// over slices, so a stall in one slice (another tenant of the machine, a
// collection) moves the result no more than any other slice does.
type window struct {
	start  time.Time
	width  time.Duration
	slices int
}

func newWindow(d time.Duration) window {
	n := int(d / time.Second)
	if n < 1 {
		n = 1
	}
	return window{start: time.Now(), width: d / time.Duration(n), slices: n}
}

// slice returns the index of the slice t falls in; slices or more means
// t is past the window.
func (w window) slice(t time.Time) int { return int(t.Sub(w.start) / w.width) }

// cpuPerSlice samples the process CPU time at every slice boundary and
// delivers the CPU spent in each slice once the window is over.
func (w window) cpuPerSlice() <-chan []time.Duration {
	ch := make(chan []time.Duration, 1)
	prev := cpuTime()
	go func() {
		out := make([]time.Duration, w.slices)
		for i := range out {
			time.Sleep(time.Until(w.start.Add(time.Duration(i+1) * w.width)))
			now := cpuTime()
			out[i] = now - prev
			prev = now
		}
		ch <- out
	}()
	return ch
}
