package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dup/internal/experiments"
	"dup/internal/proto"
	"dup/internal/scheme"
	"dup/internal/scheme/cup"
	"dup/internal/scheme/dupscheme"
	"dup/internal/sim"
)

// paper-fig4: experiment fig4 at full scale with a fixed seed — 21
// simulator runs, PCX, CUP and DUP at each of seven query rates λ, two at
// a time. The figure is defined at one seed, so the workload seed does not
// change it; every run checks the figure repeats byte for byte.
const (
	fig4Seed       = 1
	fig4Workers    = 2 // the experiment runner's parallelism on this machine
	fig4SetupBatch = 8
)

// fig4Lambdas is experiment fig4's λ axis; parseFig4 confirms the figure
// printed the same one.
var fig4Lambdas = []float64{0.1, 0.3, 1, 3, 10, 30, 100}

// fig4Job is one simulator run of the figure.
type fig4Job struct {
	cfg  sim.Config
	name string
	mk   func() scheme.Scheme
}

// fig4Jobs rebuilds the figure's grid as the experiment defines it: the
// paper's Table I defaults at full scale, one TTL of warm-up, and no push
// lead for PCX, which never pushes.
func fig4Jobs() []fig4Job {
	var jobs []fig4Job
	for _, lam := range fig4Lambdas {
		for _, s := range []struct {
			name string
			mk   func() scheme.Scheme
		}{
			{"PCX", func() scheme.Scheme { return scheme.NewPCX() }},
			{"CUP", func() scheme.Scheme { return cup.New() }},
			{"DUP", func() scheme.Scheme { return dupscheme.New() }},
		} {
			cfg := sim.Default()
			cfg.Warmup = cfg.TTL
			cfg.Seed = fig4Seed
			cfg.Lambda = lam
			if s.name == "PCX" {
				cfg.Lead = 0
			}
			jobs = append(jobs, fig4Job{cfg, s.name, s.mk})
		}
	}
	return jobs
}

func runFig4(o runOpts) (*outcome, error) {
	heap := startHeapPeak()
	defer heap.MB()
	exp, ok := experiments.ByID("fig4")
	if !ok {
		return nil, errors.New("experiment fig4 is not registered")
	}
	jobs := fig4Jobs()

	// Set-up is what precedes the first simulated event: building the
	// tree, workload and caches of every engine in the grid. Each round
	// starts from a collected heap, so no round pays for another's
	// garbage, and the rounds run in batches before, between and after the
	// figures, so their median samples the whole run, not one moment.
	var setups []float64
	setupBatch := func() error {
		for i := 0; i < fig4SetupBatch; i++ {
			runtime.GC()
			t0 := time.Now()
			for _, j := range jobs {
				if _, err := sim.New(j.cfg, j.mk()); err != nil {
					return err
				}
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		return nil
	}
	if err := setupBatch(); err != nil {
		return nil, err
	}
	out := &outcome{e2e: metrics{}, report: metrics{}}
	if o.traced {
		return out, tracedSweep(jobs, setups, heap, out)
	}

	var figs []float64
	var first string
	var cpu, total time.Duration
	for len(figs) < 2 || total < o.seconds {
		var buf bytes.Buffer
		cpu0 := cpuTime()
		t0 := time.Now()
		err := exp.Run(&buf, experiments.Options{Scale: experiments.Full, Seed: fig4Seed, CSV: true})
		took := time.Since(t0)
		cpu += cpuTime() - cpu0
		total += took
		figs = append(figs, took.Seconds())
		out.attempted += int64(len(jobs))
		if err != nil {
			return nil, fmt.Errorf("fig4: %w", err)
		}
		if len(figs) == 1 {
			first = buf.String()
		} else if buf.String() != first {
			out.fail("paper-fig4: run %d printed a different figure than run 1", len(figs))
		}
		if err := setupBatch(); err != nil {
			return nil, err
		}
	}
	heapMB := heap.MB()

	rows, err := parseFig4(first)
	if err != nil {
		return nil, err
	}
	if len(rows) != len(fig4Lambdas) {
		return nil, fmt.Errorf("figure 4 has %d rows, want %d", len(rows), len(fig4Lambdas))
	}
	for i, r := range rows {
		if r.lambda != fig4Lambdas[i] {
			return nil, fmt.Errorf("figure 4 row %d is λ=%g, want %g", i, r.lambda, fig4Lambdas[i])
		}
	}
	if err := checkFig4(rows); err != nil {
		out.fail("paper-fig4: %v", err)
	}

	// The paper's cost at λ = 1 is absolute, not relative to PCX, so it
	// takes one more DUP run outside the timed figures.
	var dupAt1 *fig4Job
	for i := range jobs {
		if jobs[i].name == "DUP" && jobs[i].cfg.Lambda == 1 {
			dupAt1 = &jobs[i]
		}
	}
	res, err := sim.Run(dupAt1.cfg, dupAt1.mk())
	if err != nil {
		return nil, err
	}
	var hopsAt1 float64
	for _, r := range rows {
		if r.lambda == 1 {
			hopsAt1 = r.dupLat
		}
	}

	sims := int64(len(jobs) * len(figs))
	figureS := median(figs)
	setupS := median(setups)
	out.e2e.set("setup_s", setupS, "s")
	out.p50ms = figureS * 1000
	out.e2e.set("rate", float64(sims)/total.Seconds(), "1/s")
	out.e2e.set("cpu_us_per_op", float64(cpu.Microseconds())/float64(sims), "us")

	out.report.set("setup_s", setupS, "s")
	out.report.set("peak_heap_mb", heapMB, "MB")
	out.report.set("figure_s", figureS, "s")
	out.report.set("figures", float64(len(figs)), "count")
	out.report.set("hops_per_query", hopsAt1, "hops")
	out.report.set("cost_per_query", res.MeanCost, "hops")
	return out, nil
}

// tracedSweep runs the figure's grid itself, fig4Workers at a time like
// the experiment runner, with every scheme wrapped in a timedScheme, and
// reports the simulator's event rate and the share of its time spent in
// the scheme's callbacks. Its e2e metrics mirror the untraced figure's,
// so the tracing overhead compares like with like.
func tracedSweep(jobs []fig4Job, setups []float64, heap *heapPeak, out *outcome) error {
	spans := newSlotLog[span](2 * len(jobs))
	base := time.Now()
	results := make([]*sim.Result, len(jobs))
	callbacks := make([]time.Duration, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	for w := 0; w < fig4Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ts := &timedScheme{inner: jobs[i].mk()}
				t0 := time.Since(base)
				results[i], errs[i] = sim.Run(jobs[i].cfg, ts)
				t1 := time.Since(base)
				callbacks[i] = ts.spent
				id := uint64(i + 1)
				spans.add(span{name: spanSimRun, parent: noParent, id: id, start: int64(t0), end: int64(t1)})
				spans.add(span{name: spanSchemeCalls, parent: spanSimRun, id: id, start: int64(t0), end: int64(t0 + ts.spent)})
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(base)
	cpu := cpuTime() - cpu0
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var events uint64
	var simWall, inScheme time.Duration
	for i, r := range results {
		events += r.Events
		simWall += r.Wall
		inScheme += callbacks[i]
	}
	out.attempted = int64(len(jobs))
	out.report.set("peak_heap_mb", heap.MB(), "MB")
	out.e2e.set("setup_s", median(setups), "s")
	out.p50ms = float64(wall.Microseconds()) / 1000
	out.e2e.set("rate", float64(len(jobs))/wall.Seconds(), "1/s")
	out.e2e.set("cpu_us_per_op", float64(cpu.Microseconds())/float64(len(jobs)), "us")
	out.report.set("sweep_s", wall.Seconds(), "s")
	out.layers = metrics{}
	out.layers.set("sim.events", float64(events), "count")
	out.layers.set("sim.events_per_s", float64(events)/simWall.Seconds(), "1/s")
	out.layers.set("scheme.self_share", div(inScheme.Seconds(), simWall.Seconds()), "ratio")
	out.spans = spans
	return nil
}

// timedScheme wraps a scheme and sums the time spent in its callbacks.
// The simulator calls a scheme from one goroutine, so spent needs no
// synchronisation.
type timedScheme struct {
	inner scheme.Scheme
	spent time.Duration
}

func (s *timedScheme) Name() string { return s.inner.Name() }

func (s *timedScheme) Attach(h scheme.Host) {
	t0 := time.Now()
	s.inner.Attach(h)
	s.spent += time.Since(t0)
}

func (s *timedScheme) OnAccess(n int, miss bool) *proto.Piggyback {
	t0 := time.Now()
	p := s.inner.OnAccess(n, miss)
	s.spent += time.Since(t0)
	return p
}

func (s *timedScheme) OnPiggyback(n int, p *proto.Piggyback) *proto.Piggyback {
	t0 := time.Now()
	q := s.inner.OnPiggyback(n, p)
	s.spent += time.Since(t0)
	return q
}

func (s *timedScheme) OnMessage(m *proto.Message) {
	t0 := time.Now()
	s.inner.OnMessage(m)
	s.spent += time.Since(t0)
}

func (s *timedScheme) OnRefresh(v int64, expiry float64) {
	t0 := time.Now()
	s.inner.OnRefresh(v, expiry)
	s.spent += time.Since(t0)
}

func (s *timedScheme) OnIntervalEnd() {
	t0 := time.Now()
	s.inner.OnIntervalEnd()
	s.spent += time.Since(t0)
}

func (s *timedScheme) OnNodeDown(f, oldParent int, formerChildren []int) {
	t0 := time.Now()
	s.inner.OnNodeDown(f, oldParent, formerChildren)
	s.spent += time.Since(t0)
}

func (s *timedScheme) OnNodeUp(f, parent int) {
	t0 := time.Now()
	s.inner.OnNodeUp(f, parent)
	s.spent += time.Since(t0)
}
