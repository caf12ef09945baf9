package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"dup/internal/live"
)

// pair is one (node, key) a query is issued for.
type pair struct{ node, key int }

// seqLen is the length of each client's seeded query sequence; clients
// cycle through it. A power of two, so the index is a mask.
const seqLen = 1 << 16

// seededSeq draws seqLen pairs uniformly from pairs with a generator
// seeded by the workload seed and the client.
func seededSeq(seed uint64, client int, pairs []pair) []pair {
	r := rand.New(rand.NewPCG(seed, uint64(client)+1))
	seq := make([]pair, seqLen)
	for i := range seq {
		seq[i] = pairs[r.IntN(len(pairs))]
	}
	return seq
}

// yield gives up the processor after each query of a closed loop. A
// query is a channel round trip between the caller and the node's lane,
// and Go runs a goroutine woken by a channel handoff next on the same
// processor, so a caller that never yields keeps its processor in a
// ping-pong with the lanes it queries and starves every other goroutine:
// the TCP readers and writers and the lanes pushing versions. The
// clients stand for callers outside the process, which hold no processor
// between queries.
func yield() { runtime.Gosched() }

// readClient is one closed-loop client: it issues its next query as soon
// as the previous one returns.
type readClient struct {
	id  int
	seq []pair

	attempted, failed int64
	hops, local       int64
	localNs, remoteNs int64
	// Per slice of the window: answered queries and every stride-th
	// query's latency.
	served []int64
	lat    [][]time.Duration

	// last is the version last served per (node, key) (hot-read); seen
	// the highest version served per key (cold-read). -1 before any.
	last [][]int64
	seen []int64

	bad      int64
	problems []string
}

func (cl *readClient) note(format string, args ...any) {
	cl.bad++
	if len(cl.problems) < 3 {
		cl.problems = append(cl.problems, fmt.Sprintf("client %d: ", cl.id)+fmt.Sprintf(format, args...))
	}
}

// readSpec is what distinguishes hot-read from cold-read.
type readSpec struct {
	cfg live.Config
	// pairs lists the (node, key) pairs client draws from.
	pairs func(client int) []pair
	// warm brings a booted cluster to the workload's steady state.
	warm func(c *cluster, cls []*readClient) error
	// check verifies one answer.
	check func(c *cluster, cl *readClient, p pair, r live.QueryResult) error
	// final runs the end-of-run checks.
	final func(c *cluster, cls []*readClient, root []int64, after counters, out *outcome)
	// stride keeps every stride-th latency.
	stride int
}

func newReadClients(s readSpec, seed uint64) []*readClient {
	cls := make([]*readClient, clients)
	for i := range cls {
		cl := &readClient{id: i, seq: seededSeq(seed, i, s.pairs(i))}
		cl.last = make([][]int64, clusterNodes)
		for n := range cl.last {
			cl.last[n] = make([]int64, s.cfg.Keys)
			for k := range cl.last[n] {
				cl.last[n][k] = -1
			}
		}
		cl.seen = make([]int64, s.cfg.Keys)
		for k := range cl.seen {
			cl.seen[k] = -1
		}
		cls[i] = cl
	}
	return cls
}

// loop runs the client through the window's slices.
func (cl *readClient) loop(c *cluster, s readSpec, w window) {
	p := c.probe
	cl.served = make([]int64, w.slices)
	cl.lat = make([][]time.Duration, w.slices)
	for i := 0; ; i++ {
		pr := cl.seq[i&(seqLen-1)]
		t0 := time.Now()
		slice := w.slice(t0)
		if slice >= w.slices {
			return
		}
		r, err := c.query(pr.node, pr.key, queryTimeout)
		d := time.Since(t0)
		yield()
		cl.attempted++
		if err != nil {
			cl.failed++
			continue
		}
		if err := s.check(c, cl, pr, r); err != nil {
			cl.note("node %d key %d, %v into the window: %v", pr.node, pr.key, t0.Sub(w.start).Round(time.Millisecond), err)
		}
		cl.served[slice]++
		cl.hops += int64(r.Hops)
		if r.Local {
			cl.local++
			cl.localNs += int64(d)
		} else {
			cl.remoteNs += int64(d)
		}
		if i%s.stride == 0 {
			cl.lat[slice] = append(cl.lat[slice], d)
			if p != nil {
				start := int64(t0.Sub(p.base))
				p.spans.add(span{name: spanQuery, parent: noParent, id: queryID(cl.id, i), start: start, end: start + int64(d)})
			}
		}
	}
}

// runReads boots the cluster setupRounds times, runs the closed-loop
// clients on the last for the window, checks every answer and reports.
func runReads(s readSpec, o runOpts) (*outcome, error) {
	heap := startHeapPeak()
	defer heap.MB()
	cls := newReadClients(s, o.seed)
	c, setups, err := setupRepeated(func() (*cluster, error) {
		var p *probe
		if o.traced {
			p = newProbe(true, 0)
		}
		c, err := bootCluster(s.cfg, bootOpts{probe: p})
		if err != nil {
			return nil, err
		}
		if err := s.warm(c, cls); err != nil {
			c.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	v0, err := c.rootVersions()
	if err != nil {
		c.stop()
		return nil, err
	}
	before := c.counters()
	if c.probe != nil {
		c.probe.window.Store(true)
	}
	w := newWindow(o.seconds)
	cpuCh := w.cpuPerSlice()
	var wg sync.WaitGroup
	for _, cl := range cls {
		wg.Add(1)
		go func(cl *readClient) {
			defer wg.Done()
			cl.loop(c, s, w)
		}(cl)
	}
	wg.Wait()
	cpu := <-cpuCh
	if c.probe != nil {
		c.probe.window.Store(false)
	}
	after := c.counters()
	v1, err := c.rootVersions()
	if err != nil {
		c.stop()
		return nil, err
	}
	out := &outcome{e2e: metrics{}, report: metrics{}}
	s.final(c, cls, v1, after, out)
	if err := c.stop(); err != nil {
		return nil, err
	}

	// Rate, CPU per query and median latency are taken per slice and
	// reported as the median over the slices.
	var lats []float64
	var hops, local, localNs, remoteNs int64
	rates := make([]float64, w.slices)
	cpuPer := make([]float64, w.slices)
	p50s := make([]float64, w.slices)
	for i := 0; i < w.slices; i++ {
		var served int64
		var slice []float64
		for _, cl := range cls {
			served += cl.served[i]
			for _, d := range cl.lat[i] {
				slice = append(slice, float64(d.Nanoseconds())/1e6)
			}
		}
		lats = append(lats, slice...)
		rates[i] = float64(served) / w.width.Seconds()
		cpuPer[i] = div(float64(cpu[i].Nanoseconds())/1e3, float64(served))
		p50s[i] = quantile(slice, 0.5)
	}
	for _, cl := range cls {
		out.attempted += cl.attempted
		out.failed += cl.failed
		hops += cl.hops
		local += cl.local
		localNs += cl.localNs
		remoteNs += cl.remoteNs
		if cl.bad > 0 {
			out.fail("%d answers failed their checks, e.g. %v", cl.bad, cl.problems)
		}
	}
	served := out.attempted - out.failed
	if served == 0 {
		return nil, errors.New("no query was answered")
	}
	p50, p99 := median(p50s), quantile(lats, 0.99)
	setupS := median(setups)
	rate := median(rates)
	cpuPerOp := median(cpuPer)
	heapMB := heap.MB()

	out.e2e.set("setup_s", setupS, "s")
	out.p50ms = p50
	out.e2e.set("rate", rate, "1/s")
	out.e2e.set("cpu_us_per_op", cpuPerOp, "us")

	out.report.set("setup_s", setupS, "s")
	out.report.set("peak_heap_mb", heapMB, "MB")
	out.report.set("query_rate", rate, "queries/s")
	out.report.set("query_p50_us", p50*1000, "us")
	out.report.set("query_p99_us", p99*1000, "us")
	out.report.set("hops_per_query", float64(hops)/float64(served), "hops")
	out.report.set("local_share", float64(local)/float64(served), "ratio")
	out.report.set("cpu_us_per_query", cpuPerOp, "us")
	out.report.set("latency_samples", float64(len(lats)), "count")

	if c.probe != nil {
		var versions int64
		for k := range v0 {
			versions += v1[k] - v0[k]
		}
		out.layers = liveLayers(c.probe, before, after, versions)
		out.layers.set("live.query_local_us", div(float64(localNs), float64(local))/1000, "us")
		out.layers.set("live.query_remote_us", div(float64(remoteNs), float64(served-local))/1000, "us")
		out.layers.set("transport.frames_per_query", div(float64(after.frames-before.frames), float64(served)), "ratio")
		if err := wireLayers(c.probe, out.layers); err != nil {
			return nil, err
		}
		out.spans = c.probe.spans
	}
	return out, nil
}

// hot-read: every node is interested in every key, so after warm-up
// nearly every answer is a local hit from the node's pushed copy. Client
// c queries the nodes its own Network hosts.
//
// The authority refreshes on its keep-alive tick, the first one after
// expiry − Lead, so up to KeepAliveEvery (40 ms) of the default 80 ms lead
// is lost; a stall of the remaining 40 ms delivers a push after the copy
// expired and the next query misses. hot-read doubles the lead so its
// checks hold through such stalls; TTL stays above twice the lead.
const (
	hotKeys   = 32
	hotStride = 8
	hotLead   = 160 * time.Millisecond
)

func hotReadSpec() readSpec {
	cfg := liveBase()
	cfg.Keys = hotKeys
	cfg.Lead = hotLead
	return readSpec{
		cfg:   cfg,
		pairs: hotPairs,
		warm: func(c *cluster, cls []*readClient) error {
			errs := make([]error, len(cls))
			var wg sync.WaitGroup
			for i := range cls {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = warmLocal(c, hotPairs(i))
				}(i)
			}
			wg.Wait()
			return errors.Join(errs...)
		},
		check: func(c *cluster, cl *readClient, p pair, r live.QueryResult) error {
			if err := checkLocalHit(r); err != nil {
				return err
			}
			last := &cl.last[p.node][p.key]
			err := checkMonotone(*last, r.Version)
			*last = r.Version
			return err
		},
		final: func(c *cluster, cls []*readClient, root []int64, _ counters, out *outcome) {
			for _, cl := range cls {
				for n, keys := range cl.last {
					for k, v := range keys {
						if v < 0 {
							continue
						}
						if err := checkWithinOne(v, root[k]); err != nil {
							out.fail("hot-read: node %d key %d at the end: %v", n, k, err)
							return
						}
					}
				}
			}
		},
		stride: hotStride,
	}
}

// hotPairs lists every key at every node the client's own Network hosts.
func hotPairs(client int) []pair {
	var ps []pair
	for n := 0; n < clusterNodes; n++ {
		if netOf(n) != client {
			continue
		}
		for k := 0; k < hotKeys; k++ {
			ps = append(ps, pair{n, k})
		}
	}
	return ps
}

// warmLocal queries each pair past the interest threshold, then keeps
// querying until every pair has answered locally for longer than a TTL
// plus the lead: a copy cached from a reply expires within a TTL, so
// only pairs fed by pushes stay local that long.
func warmLocal(c *cluster, pairs []pair) error {
	deadline := time.Now().Add(warmDeadline)
	for _, p := range pairs {
		for i := 0; i <= c.cfg.Threshold; i++ {
			if _, err := c.query(p.node, p.key, queryTimeout); err != nil {
				return err
			}
			yield()
		}
	}
	var streak time.Time
	for {
		pass := time.Now()
		all := true
		for _, p := range pairs {
			r, err := c.query(p.node, p.key, queryTimeout)
			if err != nil {
				return err
			}
			yield()
			all = all && r.Local
		}
		switch {
		case !all:
			streak = time.Time{}
		case streak.IsZero():
			streak = pass
		case time.Since(streak) > c.cfg.TTL+c.cfg.Lead:
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("pairs still not fed by pushes")
		}
	}
}

func runHotRead(o runOpts) (*outcome, error) { return runReads(hotReadSpec(), o) }

// cold-read: many keys and a short TTL, so most queries find no valid
// copy and travel request/reply hops through lanes, TCP and the codec.
// The interest threshold sits above anything the clients can reach, so
// nothing subscribes and nothing is pushed. Client c queries the keys
// with key mod 2 == c at every node, so it sees every answer for its
// keys in order.
const (
	coldKeys          = 512
	coldStride        = 1
	coldWarmQueries   = 5000
	coldMinMissShare  = 0.9
	coldUnreachableIn = 1 << 30
)

func coldReadSpec() readSpec {
	cfg := liveBase()
	cfg.Keys = coldKeys
	cfg.TTL = 40 * time.Millisecond
	cfg.Lead = 10 * time.Millisecond
	cfg.KeepAliveEvery = 10 * time.Millisecond
	cfg.DeadAfter = 200 * time.Millisecond
	cfg.RootAnnounceEvery = 0
	cfg.Threshold = coldUnreachableIn
	var depth []int
	tree := cfg.BuildTree()
	for n := 0; n < tree.N(); n++ {
		depth = append(depth, tree.Depth(n))
	}
	return readSpec{
		cfg: cfg,
		pairs: func(client int) []pair {
			var ps []pair
			for n := 0; n < clusterNodes; n++ {
				for k := client; k < coldKeys; k += clients {
					ps = append(ps, pair{n, k})
				}
			}
			return ps
		},
		warm: func(c *cluster, cls []*readClient) error {
			errs := make([]error, len(cls))
			var wg sync.WaitGroup
			for i, cl := range cls {
				wg.Add(1)
				go func(i int, cl *readClient) {
					defer wg.Done()
					for q := 0; q < coldWarmQueries; q++ {
						p := cl.seq[(seqLen-1-q)&(seqLen-1)]
						if _, err := c.query(p.node, p.key, queryTimeout); err != nil {
							errs[i] = err
							return
						}
						yield()
					}
				}(i, cl)
			}
			wg.Wait()
			return errors.Join(errs...)
		},
		check: func(c *cluster, cl *readClient, p pair, r live.QueryResult) error {
			if err := checkHops(r.Hops, depth[p.node]); err != nil {
				return err
			}
			err := checkNotBehind(r.Version, cl.seen[p.key])
			if r.Version > cl.seen[p.key] {
				cl.seen[p.key] = r.Version
			}
			return err
		},
		final: func(c *cluster, cls []*readClient, _ []int64, after counters, out *outcome) {
			if after.Subscribes != 0 {
				out.fail("cold-read: %d subscribes, want none", after.Subscribes)
			}
			var local, served int64
			for _, cl := range cls {
				local += cl.local
				served += cl.attempted - cl.failed
			}
			if miss := 1 - div(float64(local), float64(served)); miss < coldMinMissShare {
				out.fail("cold-read: only %.3f of queries missed, want at least %.2f", miss, coldMinMissShare)
			}
		},
		stride: coldStride,
	}
}

func runColdRead(o runOpts) (*outcome, error) { return runReads(coldReadSpec(), o) }
