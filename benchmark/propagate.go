package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dup/internal/analysis"
	"dup/internal/live"
)

// propagate: the write path, deployed as dupd -replicas 3 -state-dir runs
// it. The authority refreshes every key on its TTL schedule and pushes
// each version down the key's DUP tree; every version goes through the
// replicated log and every state change through a file-backed journal,
// one store.Store per Network. An open-loop generator keeps every
// non-root node interested in every key at propQueriesPerTTL queries per
// TTL, twice what Threshold 1 needs, so the trees do not flap. After the
// window the leaseholder is killed and fail-over is timed.
const (
	propKeys          = 32
	propThreshold     = 1
	propQueriesPerTTL = 4
	propGrace         = time.Second
	failoverDeadline  = 10 * time.Second
	failoverProbe     = 100 * time.Millisecond
	statsSampleEvery  = 20 * time.Millisecond
)

func propConfig() live.Config {
	cfg := liveBase()
	cfg.Keys = propKeys
	cfg.Threshold = propThreshold
	cfg.Replicas = 3
	return cfg
}

// versionKey names one published version of one key.
type versionKey struct {
	key     int32
	version int64
}

// generator is one open-loop query source: it queries each of its pairs
// once per period at the pair's seeded phase, whether or not earlier
// queries have returned late.
type generator struct {
	pairs  []pair
	phases []time.Duration // sorted, one per pair

	counting atomic.Bool // count operations: set only inside the window
	stop     atomic.Bool

	attempted, failed atomic.Int64
	// localRounds counts consecutive rounds in which every query was
	// answered locally; warm-up waits on it.
	localRounds atomic.Int64
	streakStart atomic.Int64 // unix ns of the current all-local streak

	// Lateness of each query behind its due time, inside the window.
	lateMax, lateSum, lateN atomic.Int64
}

func newGenerator(seed uint64, client int, period time.Duration) *generator {
	g := &generator{}
	for n := 1; n < clusterNodes; n++ {
		if netOf(n) != client {
			continue
		}
		for k := 0; k < propKeys; k++ {
			g.pairs = append(g.pairs, pair{n, k})
		}
	}
	r := rand.New(rand.NewPCG(seed, uint64(client)+101))
	g.phases = make([]time.Duration, len(g.pairs))
	for i := range g.phases {
		g.phases[i] = time.Duration(r.Int64N(int64(period)))
	}
	sort.Sort(byPhase{g})
	return g
}

type byPhase struct{ g *generator }

func (b byPhase) Len() int           { return len(b.g.pairs) }
func (b byPhase) Less(i, j int) bool { return b.g.phases[i] < b.g.phases[j] }
func (b byPhase) Swap(i, j int) {
	b.g.pairs[i], b.g.pairs[j] = b.g.pairs[j], b.g.pairs[i]
	b.g.phases[i], b.g.phases[j] = b.g.phases[j], b.g.phases[i]
}

// run issues queries until stop is set. Before the window it drops the
// rounds it fell a whole period behind on (the first rounds miss and
// are slow), so the window starts on schedule; inside the window it
// never skips, and its lateness is reported.
func (g *generator) run(c *cluster, start time.Time, period time.Duration) {
	for round := 0; ; round++ {
		roundStart := start.Add(time.Duration(round) * period)
		if !g.counting.Load() && time.Since(roundStart) > period {
			start, round, roundStart = time.Now(), 0, time.Now()
		}
		all := true
		for i, p := range g.pairs {
			if g.stop.Load() {
				return
			}
			due := roundStart.Add(g.phases[i])
			if wait := time.Until(due); wait > 200*time.Microsecond {
				time.Sleep(wait)
			}
			late := time.Since(due)
			counting := g.counting.Load()
			r, err := c.query(p.node, p.key, queryTimeout)
			yield()
			if counting {
				g.attempted.Add(1)
				if late > 0 {
					g.lateSum.Add(int64(late))
					if int64(late) > g.lateMax.Load() {
						g.lateMax.Store(int64(late))
					}
				}
				g.lateN.Add(1)
				if err != nil {
					g.failed.Add(1)
				}
			}
			all = all && err == nil && r.Local
		}
		if all {
			if g.localRounds.Add(1) == 1 {
				g.streakStart.Store(roundStart.UnixNano())
			}
		} else {
			g.localRounds.Store(0)
		}
	}
}

// localSince reports since when every round has been answered locally
// (zero time if the last round was not).
func (g *generator) localSince() time.Time {
	if g.localRounds.Load() == 0 {
		return time.Time{}
	}
	return time.Unix(0, g.streakStart.Load())
}

// propRun is one booted, warmed propagate cluster with its generators.
type propRun struct {
	c    *cluster
	gens []*generator
	wg   sync.WaitGroup
}

func (r *propRun) stopGenerators() {
	for _, g := range r.gens {
		g.stop.Store(true)
	}
	r.wg.Wait()
}

func (r *propRun) stop() error {
	r.stopGenerators()
	return r.c.stop()
}

// bootPropagate boots the journalled, replicated cluster, starts the
// generators and waits until every pair has been answered locally for
// longer than a TTL plus the lead, so every copy is fed by pushes.
func bootPropagate(cfg live.Config, p *probe, seed uint64) (*propRun, error) {
	c, err := bootCluster(cfg, bootOpts{probe: p, journal: true})
	if err != nil {
		return nil, err
	}
	period := cfg.TTL / propQueriesPerTTL
	r := &propRun{c: c}
	start := time.Now()
	for i := 0; i < clients; i++ {
		g := newGenerator(seed, i, period)
		r.gens = append(r.gens, g)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			g.run(c, start, period)
		}()
	}
	deadline := time.Now().Add(warmDeadline)
	for {
		ready := true
		for _, g := range r.gens {
			since := g.localSince()
			ready = ready && !since.IsZero() && time.Since(since) > cfg.TTL+cfg.Lead
		}
		if ready {
			return r, nil
		}
		if time.Now().After(deadline) {
			r.stop()
			return nil, errors.New("warm-up: pairs still not fed by pushes")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// arrivalKey names one version's arrival at one node; edgeKey one
// version's push over one edge.
type arrivalKey struct {
	v    versionKey
	node int16
}

type edgeKey struct {
	v        versionKey
	from, to int16
}

func runPropagate(o runOpts) (*outcome, error) {
	heap := startHeapPeak()
	defer heap.MB()
	cfg := propConfig()
	tree := cfg.BuildTree()

	// Push log capacity: a send and an arrival per edge per version, for
	// every version the schedule can publish while recording, twice over.
	versionsPerSec := float64(propKeys) / (cfg.TTL - cfg.Lead).Seconds()
	recSecs := o.seconds.Seconds() + propGrace.Seconds() + 1
	pushCap := int(versionsPerSec * recSecs * float64(2*clusterNodes) * 2)

	pr, setups, err := setupRepeated(func() (*propRun, error) {
		return bootPropagate(cfg, newProbe(o.traced, pushCap), o.seed)
	})
	if err != nil {
		return nil, err
	}
	c, p := pr.c, pr.c.probe
	root := c.nets[0].RootID()

	// The window. Traced, a sampler reads the leaseholder's replica health.
	before := c.counters()
	lagMax, headroomMin := int64(0), int64(-1)
	samplerStop := make(chan struct{})
	var samplerDone sync.WaitGroup
	if o.traced {
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			t := time.NewTicker(statsSampleEvery)
			defer t.Stop()
			for {
				s := c.nets[netOf(root)].Stats()
				lagMax = max(lagMax, s.ReplicaLag)
				if headroomMin < 0 || s.ReserveHeadroom < headroomMin {
					headroomMin = s.ReserveHeadroom
				}
				select {
				case <-samplerStop:
					return
				case <-t.C:
				}
			}
		}()
	}
	p.window.Store(true)
	for _, g := range pr.gens {
		g.counting.Store(true)
	}
	cpu0 := cpuTime()
	w0 := p.now()
	time.Sleep(o.seconds)
	for _, g := range pr.gens {
		g.counting.Store(false)
	}
	cpu := cpuTime() - cpu0
	w1 := p.now()
	after := c.counters()
	close(samplerStop)
	samplerDone.Wait()
	// Versions published at the window's end still propagate: keep
	// recording (and the generators querying) for the grace period.
	time.Sleep(propGrace)
	p.window.Store(false)
	pr.stopGenerators()

	out := &outcome{e2e: metrics{}, report: metrics{}}
	for _, g := range pr.gens {
		out.attempted += g.attempted.Load()
		out.failed += g.failed.Load()
	}

	// Fail-over: the version the leaseholder serves, then its death, then
	// a distant node probed until it resolves a newer version. The probe
	// is one operation; its queries are not counted. The probe's answers
	// must never go backwards, and the promoted authority must serve above
	// everything the dead one served.
	pre, err := c.query(root, 0, queryTimeout)
	if err != nil {
		pr.stop()
		return nil, fmt.Errorf("pre-kill query at the leaseholder: %w", err)
	}
	site := deepestNode(cfg)
	p.markKill()
	killAt := p.now()
	kill := time.Now()
	c.nets[netOf(root)].Fail(root)
	failover := time.Duration(-1)
	seen := int64(-1)
	for time.Since(kill) < failoverDeadline {
		r, err := c.query(site, 0, failoverProbe)
		if err == nil {
			if err := checkMonotone(seen, r.Version); err != nil {
				out.fail("propagate: fail-over probe at node %d: %v", site, err)
			}
			seen = max(seen, r.Version)
			if r.Version > pre.Version {
				failover = time.Since(kill)
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	out.attempted++
	if failover < 0 {
		out.failed++
	} else if newRoot := c.nets[0].RootID(); newRoot == root {
		out.fail("propagate: node %d still the authority after its death", root)
	} else if r, err := c.query(newRoot, 0, queryTimeout); err != nil {
		out.fail("propagate: promoted authority %d: %v", newRoot, err)
	} else if err := checkFailover(pre.Version, r.Version); err != nil {
		out.fail("propagate: promoted authority %d: %v", newRoot, err)
	}
	if err := pr.stop(); err != nil {
		return nil, err
	}
	heapMB := heap.MB()

	// Reconstruct every version's propagation from the push log.
	if p.pushes.dropped() > 0 {
		return nil, errors.New("push log overflowed; raise its capacity")
	}
	evs := p.pushes.values()
	rootFirst := map[versionKey]int64{}
	edges := map[edgeKey]struct{}{}
	arrived := map[arrivalKey]int64{}
	for _, e := range evs {
		kv := versionKey{e.key, e.version}
		if e.arrive {
			ak := arrivalKey{kv, e.to}
			if t, ok := arrived[ak]; !ok || e.at < t {
				arrived[ak] = e.at
			}
			continue
		}
		edges[edgeKey{kv, e.from, e.to}] = struct{}{}
		if int(e.from) == root {
			if t, ok := rootFirst[kv]; !ok || e.at < t {
				rootFirst[kv] = e.at
			}
		}
	}
	published := map[versionKey]int64{}
	for kv, t := range rootFirst {
		if t >= w0 && t <= w1 {
			published[kv] = t
		}
	}
	if len(published) == 0 {
		return nil, errors.New("the authority published no version in the window")
	}
	perVersion := map[versionKey]int{}
	for ek := range edges {
		if _, ok := published[ek.v]; ok {
			perVersion[ek.v]++
		}
	}
	interested := make([]int, 0, tree.N()-1)
	for n := 1; n < tree.N(); n++ {
		interested = append(interested, n)
	}
	wantEdges := analysis.New(tree, interested).DUPPushEdges()
	if err := checkPushEdges(perVersion, wantEdges); err != nil {
		out.fail("propagate: %v", err)
	}
	var lats []float64
	missing := 0
	var last map[versionKey]int64
	if p.traced {
		last = map[versionKey]int64{}
	}
	for kv, t0 := range published {
		for _, n := range interested {
			t, ok := arrived[arrivalKey{kv, int16(n)}]
			if !ok {
				missing++
				continue
			}
			lats = append(lats, float64(t-t0)/1e6)
			if last != nil {
				last[kv] = max(last[kv], t)
				p.spans.add(span{name: spanDeliver, parent: spanVersion, id: versionID(int(kv.key), kv.version), start: t0, end: t})
			}
		}
	}
	for kv, t := range last {
		p.spans.add(span{name: spanVersion, parent: noParent, id: versionID(int(kv.key), kv.version), start: published[kv], end: t})
	}
	if missing > 0 {
		out.fail("propagate: %d (version, interested node) deliveries missing of %d (nodes %v)",
			missing, len(published)*len(interested), missingNodes(published, arrived, interested))
	}
	goodput := wholeRoundGoodput(rootFirst, arrived, interested, w0, w1)
	if goodput == 0 {
		return nil, errors.New("no version reached an interested node in the window")
	}
	window := time.Duration(w1 - w0).Seconds()
	cpuPer := cpu.Seconds() / window / goodput * 1e6
	p50, p99 := quantile(lats, 0.5), quantile(lats, 0.99)
	setupS := median(setups)

	out.e2e.set("setup_s", setupS, "s")
	out.p50ms = p50
	out.e2e.set("rate", goodput, "1/s")
	out.e2e.set("cpu_us_per_op", cpuPer, "us")

	var genAttempted, lateSum, lateN, lateMax int64
	for _, g := range pr.gens {
		genAttempted += g.attempted.Load()
		lateSum += g.lateSum.Load()
		lateN += g.lateN.Load()
		lateMax = max(lateMax, g.lateMax.Load())
	}
	out.report.set("setup_s", setupS, "s")
	out.report.set("peak_heap_mb", heapMB, "MB")
	out.report.set("goodput_vps", goodput, "versions/s")
	out.report.set("cpu_us_per_version", cpuPer, "us")
	out.report.set("push_p50_ms", p50, "ms")
	out.report.set("push_p99_ms", p99, "ms")
	out.report.set("failover_ms", float64(failover.Microseconds())/1000, "ms")
	out.report.set("versions_published", float64(len(published)), "count")
	out.report.set("push_samples", float64(len(lats)), "count")
	out.report.set("dup_push_edges", float64(wantEdges), "count")
	out.report.set("generator_rate", float64(genAttempted)/window, "queries/s")
	out.report.set("generator_late_mean_ms", div(float64(lateSum), float64(lateN))/1e6, "ms")
	out.report.set("generator_late_max_ms", float64(lateMax)/1e6, "ms")
	out.report.set("subscribes", float64(after.Subscribes-before.Subscribes), "count")
	out.report.set("retransmits", float64(after.Retransmits-before.Retransmits), "count")
	out.report.set("give_ups", float64(after.RetransmitGiveUps-before.RetransmitGiveUps), "count")
	out.report.set("root_expiries", float64(after.RootExpiries-before.RootExpiries), "count")

	if p.traced {
		var recMax int64
		for _, d := range p.recDur.values() {
			recMax = max(recMax, d)
		}
		out.report.set("record_max_ms", float64(recMax)/1e6, "ms")
		out.layers = liveLayers(p, before, after, int64(len(published)))
		out.layers.set("replica.lag_max", float64(lagMax), "versions")
		out.layers.set("replica.headroom_min", float64(max(headroomMin, 0)), "versions")
		if e := p.electAt.Load(); e > 0 {
			out.layers.set("replica.elect_ms", float64(e-killAt)/1e6, "ms")
		}
		if err := wireLayers(p, out.layers); err != nil {
			return nil, err
		}
		out.spans = p.spans
	}
	return out, nil
}

// deepestNode is the fail-over probe site: the deepest node of the tree,
// the highest id among equals.
func deepestNode(cfg live.Config) int {
	tree := cfg.BuildTree()
	site := 0
	for n := 0; n < tree.N(); n++ {
		if tree.Depth(n) >= tree.Depth(site) {
			site = n
		}
	}
	return site
}

// missingNodes lists the interested nodes that missed some published
// version.
func missingNodes(published map[versionKey]int64, arrived map[arrivalKey]int64, interested []int) []int {
	var out []int
	for _, n := range interested {
		for kv := range published {
			if _, ok := arrived[arrivalKey{kv, int16(n)}]; !ok {
				out = append(out, n)
				break
			}
		}
	}
	return out
}

// wholeRoundGoodput is the rate at which versions published in the
// window reached interested nodes, over whole refresh rounds: for each
// key, the deliveries of its versions published in [w0, w1] divided by
// the time from the first of them to the key's next publication. Every
// key refreshes on the same ticks, so counting arrivals inside a fixed
// window would swing by a whole round of every key.
func wholeRoundGoodput(rootFirst map[versionKey]int64, arrived map[arrivalKey]int64, interested []int, w0, w1 int64) float64 {
	type pub struct {
		v versionKey
		t int64
	}
	byKey := map[int32][]pub{}
	for kv, t := range rootFirst {
		byKey[kv.key] = append(byKey[kv.key], pub{kv, t})
	}
	var rate float64
	for _, pubs := range byKey {
		sort.Slice(pubs, func(i, j int) bool { return pubs[i].t < pubs[j].t })
		first, end := int64(-1), w1
		delivered := 0
		for _, p := range pubs {
			if p.t < w0 {
				continue
			}
			if p.t > w1 {
				end = p.t
				break
			}
			if first < 0 {
				first = p.t
			}
			for _, n := range interested {
				if _, ok := arrived[arrivalKey{p.v, int16(n)}]; ok {
					delivered++
				}
			}
		}
		if first >= 0 && end > first {
			rate += float64(delivered) / time.Duration(end-first).Seconds()
		}
	}
	return rate
}
