package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"dup/internal/live"
)

// The checks compare each output with a property the method must have or
// with a figure computed apart from the program (the tree's depths, the
// analytical DUP push-edge count); none compares with a recorded copy of
// earlier output.

// checkLocalHit holds for a hot-read query after warm-up: every node is
// interested in every key, so it answers from its own pushed copy.
func checkLocalHit(r live.QueryResult) error {
	if !r.Local || r.Hops != 0 {
		return fmt.Errorf("query not served locally (local=%v, hops=%d)", r.Local, r.Hops)
	}
	return nil
}

// checkMonotone holds when a node never serves an older version of a key
// than it served before; prev < 0 means nothing was served yet.
func checkMonotone(prev, v int64) error {
	if prev >= 0 && v < prev {
		return fmt.Errorf("served version %d after %d", v, prev)
	}
	return nil
}

// checkWithinOne holds when a served version lags the authority's by at
// most one. A copy of version v expires TTL after v was issued, and the
// authority issues v+2 no earlier than 2·(TTL−Lead) after v, so with
// TTL > 2·Lead no valid copy is two versions behind.
func checkWithinOne(served, root int64) error {
	if served < root-1 || served > root {
		return fmt.Errorf("served version %d, authority at %d", served, root)
	}
	return nil
}

// checkNotBehind is checkWithinOne against a lower bound of the
// authority's version: the highest version already served for the key.
func checkNotBehind(served, seen int64) error {
	if served < seen-1 {
		return fmt.Errorf("served version %d after version %d was served", served, seen)
	}
	return nil
}

// checkHops holds when a query travelled no further than the querying
// node's path to the root: the authority always holds a valid copy.
func checkHops(hops, depth int) error {
	if hops < 0 || hops > depth {
		return fmt.Errorf("query took %d hops from depth %d", hops, depth)
	}
	return nil
}

// checkPushEdges holds when every published version was pushed over
// exactly as many distinct edges as the DUP tree has (counted once per
// sender and receiver, so retransmissions do not count).
func checkPushEdges(edges map[versionKey]int, want int) error {
	bad := 0
	var first string
	for kv, n := range edges {
		if n != want {
			if bad == 0 {
				first = fmt.Sprintf("key %d version %d went over %d edges", kv.key, kv.version, n)
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d versions pushed over the wrong number of edges, want %d (%s)",
			bad, len(edges), want, first)
	}
	return nil
}

// checkFailover holds when the version a node resolves after the
// leaseholder's death is above every version the old leaseholder served.
func checkFailover(pre, post int64) error {
	if post <= pre {
		return fmt.Errorf("resolved version %d after fail-over, leaseholder had served %d", post, pre)
	}
	return nil
}

// fig4Row is one λ of Figure 4: mean latency in hops per scheme (a) and
// cost relative to PCX (b).
type fig4Row struct {
	lambda                 float64
	pcxLat, cupLat, dupLat float64
	cupCost, dupCost       float64
}

// parseFig4 reads the two CSV tables experiment fig4 prints.
func parseFig4(out string) ([]fig4Row, error) {
	var lat, cost [][]float64
	var cur *[][]float64
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "λ,PCX,CUP,DUP"):
			cur = &lat
		case strings.HasPrefix(line, "λ,CUP/PCX,DUP/PCX"):
			cur = &cost
		case line == "" || strings.HasPrefix(line, "=="):
			cur = nil
		case cur != nil:
			var row []float64
			for _, f := range strings.Split(line, ",") {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("figure 4: bad cell %q", f)
				}
				row = append(row, v)
			}
			*cur = append(*cur, row)
		}
	}
	if len(lat) == 0 || len(lat) != len(cost) {
		return nil, fmt.Errorf("figure 4: %d latency rows and %d cost rows", len(lat), len(cost))
	}
	rows := make([]fig4Row, len(lat))
	for i := range lat {
		a, b := lat[i], cost[i]
		if len(a) < 4 || len(b) != 3 || a[0] != b[0] {
			return nil, fmt.Errorf("figure 4: malformed row %d", i)
		}
		rows[i] = fig4Row{lambda: a[0], pcxLat: a[1], cupLat: a[2], dupLat: a[3], cupCost: b[1], dupCost: b[2]}
	}
	return rows, nil
}

// checkFig4 holds when the figure shows the paper's ordering: at every λ
// DUP costs no more than CUP and answers no slower than PCX, and no
// scheme's latency rises with λ.
func checkFig4(rows []fig4Row) error {
	for i, r := range rows {
		if r.dupCost > r.cupCost {
			return fmt.Errorf("λ=%g: DUP cost %.3f above CUP %.3f", r.lambda, r.dupCost, r.cupCost)
		}
		if r.dupLat > r.pcxLat {
			return fmt.Errorf("λ=%g: DUP latency %.3f above PCX %.3f", r.lambda, r.dupLat, r.pcxLat)
		}
		if i == 0 {
			continue
		}
		p := rows[i-1]
		if r.lambda <= p.lambda {
			return fmt.Errorf("figure 4: λ not increasing at row %d", i)
		}
		if r.pcxLat > p.pcxLat || r.cupLat > p.cupLat || r.dupLat > p.dupLat {
			return fmt.Errorf("latency rises from λ=%g to λ=%g", p.lambda, r.lambda)
		}
	}
	return nil
}
