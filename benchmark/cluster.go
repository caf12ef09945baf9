package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dup/internal/live"
	"dup/internal/store"
	"dup/internal/topology"
	"dup/internal/transport"
)

// Every live workload runs the same tree: 48 nodes, child counts drawn
// from [1, 4], topology seed 12. The workload seed drives the generated
// query streams, not the topology, so run-to-run spread measures the
// system and not the tree's shape.
const (
	clusterNodes  = 48
	clusterDegree = 4
	treeSeed      = 12

	// clients is the number of closed-loop query clients and of
	// open-loop generators: one per Network, and no more than the CPUs of
	// the machine the reference figures come from.
	clients = 2
	// setupRounds is how many times a run boots and warms a cluster; the
	// last one is measured and setup_s is the median of all of them.
	setupRounds  = 3
	queryTimeout = time.Second
	warmDeadline = 30 * time.Second
)

// liveBase is the configuration all live workloads start from:
// DefaultConfig on the benchmark's tree, with failure detection given a
// second instead of 150 ms. At 150 ms a stall of the host now and then
// makes nodes evict live neighbours, and the repair leaves interested
// nodes without pushes for seconds (README, Findings); the workloads
// measure the steady state, so they wait out such stalls.
func liveBase() live.Config {
	cfg := live.DefaultConfig()
	cfg.Nodes = clusterNodes
	cfg.MaxDegree = clusterDegree
	cfg.Seed = treeSeed
	cfg.DeadAfter = time.Second
	return cfg
}

// netOf says which of the two Networks hosts node id. Alternating ids puts
// most tree edges, and replica 1 of the replica set, across the socket.
func netOf(id int) int { return id % clients }

// cluster is one live cluster: two Networks in this process, each with
// its own TCP transport on loopback, sharing an in-memory directory. Each
// transport dials the other once, so the cluster holds two connections.
type cluster struct {
	cfg     live.Config
	tree    *topology.Tree
	nets    [clients]*live.Network
	tcps    [clients]*transport.TCP
	stores  [clients]*store.Store
	dir     string
	probe   *probe
	handles [clients][]*live.KeyHandle
}

type bootOpts struct {
	// probe, when set, wraps both transports, and the journals when it
	// is traced.
	probe *probe
	// journal gives each Network a file-backed store.Store in a fresh
	// temporary directory, as dupd -state-dir does.
	journal bool
}

func bootCluster(cfg live.Config, o bootOpts) (c *cluster, err error) {
	c = &cluster{cfg: cfg, tree: cfg.BuildTree(), probe: o.probe}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	var hosts [clients][]int
	for id := 0; id < c.tree.N(); id++ {
		hosts[netOf(id)] = append(hosts[netOf(id)], id)
	}
	for i := range c.tcps {
		tr, err := transport.NewTCP(transport.TCPConfig{
			Listen:      "127.0.0.1:0",
			Seed:        uint64(i + 1),
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  100 * time.Millisecond,
		})
		if err != nil {
			return c, fmt.Errorf("boot: %w", err)
		}
		c.tcps[i] = tr
	}
	for i, tr := range c.tcps {
		for j := range c.tcps {
			if j == i {
				continue
			}
			for _, id := range hosts[j] {
				tr.SetPeer(id, c.tcps[j].Addr())
			}
		}
	}
	if o.journal {
		if c.dir, err = os.MkdirTemp("", "dup-benchmark-"); err != nil {
			return c, fmt.Errorf("boot: %w", err)
		}
		for i := range c.stores {
			if c.stores[i], err = store.Open(filepath.Join(c.dir, fmt.Sprint(i))); err != nil {
				return c, fmt.Errorf("boot: %w", err)
			}
		}
	}
	dir := live.NewMemDirectory(c.tree)
	for i := range c.nets {
		opts := live.Options{Transport: c.tcps[i], Directory: dir, Hosts: hosts[i]}
		if o.probe != nil {
			opts.Transport = &probedTransport{inner: c.tcps[i], p: o.probe}
		}
		if st := c.stores[i]; st != nil {
			opts.Journal = st
			if o.probe != nil && o.probe.traced {
				opts.Journal = &probedJournal{inner: st, p: o.probe}
			}
		}
		if c.nets[i], err = live.StartWith(cfg, opts); err != nil {
			return c, fmt.Errorf("boot: %w", err)
		}
		for k := 0; k < cfg.Keys; k++ {
			c.handles[i] = append(c.handles[i], c.nets[i].Key(k))
		}
	}
	return c, nil
}

// stop shuts the cluster down, waiting for every goroutine it started,
// closes the journals and removes their directory.
func (c *cluster) stop() error {
	for i, nw := range c.nets {
		if nw != nil {
			nw.Stop() // closes its transport too
		} else if c.tcps[i] != nil {
			c.tcps[i].Close()
		}
	}
	var errs []error
	for _, st := range c.stores {
		if st != nil {
			if err := st.Close(); err != nil {
				errs = append(errs, fmt.Errorf("journal: %w", err))
			}
		}
	}
	if c.dir != "" {
		if err := os.RemoveAll(c.dir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// query issues one query for key at node through the Network hosting it.
func (c *cluster) query(node, key int, timeout time.Duration) (live.QueryResult, error) {
	return c.handles[netOf(node)][key].Query(node, timeout)
}

// rootVersions queries every key at the authority, where the answer is
// the authority's own current version.
func (c *cluster) rootVersions() ([]int64, error) {
	root := c.nets[0].RootID()
	out := make([]int64, c.cfg.Keys)
	for k := range out {
		r, err := c.query(root, k, queryTimeout)
		if err != nil {
			return nil, fmt.Errorf("authority query for key %d: %w", k, err)
		}
		out[k] = r.Version
	}
	return out, nil
}

// counters is the cluster-wide sum of both Networks' counters plus the
// transports' frame counts.
type counters struct {
	live.Stats
	frames int64
}

func (c *cluster) counters() counters {
	var out counters
	var bursts float64
	for i, nw := range c.nets {
		s := nw.Stats()
		out.Queries += s.Queries
		out.QueryHops += s.QueryHops
		out.LocalHits += s.LocalHits
		out.Pushes += s.Pushes
		out.Subscribes += s.Subscribes
		out.Acks += s.Acks
		out.DupSuppressed += s.DupSuppressed
		out.Retransmits += s.Retransmits
		out.RetransmitGiveUps += s.RetransmitGiveUps
		out.RootExpiries += s.RootExpiries
		out.InboxDrops += s.InboxDrops
		out.Drops += s.Drops
		bursts += s.InboxBurstMean
		out.frames += c.tcps[i].FramesOut()
	}
	out.InboxBurstMean = bursts / float64(len(c.nets))
	return out
}

// setupRepeated boots and warms a cluster setupRounds times, stopping all
// but the last, and returns the last with every round's duration in
// seconds.
func setupRepeated[C interface{ stop() error }](boot func() (C, error)) (C, []float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		c, err := boot()
		if err != nil {
			return c, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == setupRounds-1 {
			return c, secs, nil
		}
		if err := c.stop(); err != nil {
			return c, nil, err
		}
	}
}
