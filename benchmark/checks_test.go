package main

import (
	"fmt"
	"strings"
	"testing"

	"dup/internal/analysis"
	"dup/internal/live"
)

// Each check must reject the wrong answer it exists to catch, and accept
// the right one.

func TestLocalHitRejectsRemoteAnswer(t *testing.T) {
	if err := checkLocalHit(live.QueryResult{Version: 3, Local: true}); err != nil {
		t.Fatalf("local hit rejected: %v", err)
	}
	if checkLocalHit(live.QueryResult{Version: 3, Hops: 1}) == nil {
		t.Fatal("remote answer accepted")
	}
}

func TestMonotoneRejectsRegressedVersion(t *testing.T) {
	if err := checkMonotone(-1, 0); err != nil {
		t.Fatalf("first answer rejected: %v", err)
	}
	if err := checkMonotone(7, 7); err != nil {
		t.Fatalf("repeated version rejected: %v", err)
	}
	if checkMonotone(7, 6) == nil {
		t.Fatal("regressed version accepted")
	}
}

func TestWithinOneRejectsStaleVersion(t *testing.T) {
	for _, v := range []int64{9, 10} {
		if err := checkWithinOne(v, 10); err != nil {
			t.Fatalf("version %d at authority 10 rejected: %v", v, err)
		}
	}
	for _, v := range []int64{8, 11} {
		if checkWithinOne(v, 10) == nil {
			t.Fatalf("version %d at authority 10 accepted", v)
		}
	}
	if err := checkNotBehind(9, 10); err != nil {
		t.Fatalf("version one behind rejected: %v", err)
	}
	if checkNotBehind(8, 10) == nil {
		t.Fatal("version two behind accepted")
	}
}

func TestHopsRejectsPathDeeperThanTree(t *testing.T) {
	cfg := coldReadSpec().cfg
	tree := cfg.BuildTree()
	node := deepestNode(cfg)
	depth := tree.Depth(node)
	if err := checkHops(depth, depth); err != nil {
		t.Fatalf("answer from the authority rejected: %v", err)
	}
	if checkHops(depth+1, depth) == nil {
		t.Fatalf("%d hops from depth %d accepted", depth+1, depth)
	}
}

func TestPushEdgesRejectsOffByOne(t *testing.T) {
	cfg := propConfig()
	tree := cfg.BuildTree()
	var all []int
	for n := 1; n < tree.N(); n++ {
		all = append(all, n)
	}
	want := analysis.New(tree, all).DUPPushEdges()
	if want != tree.N()-1 {
		t.Fatalf("with every node interested the DUP tree has %d edges, want %d", want, tree.N()-1)
	}
	good := map[versionKey]int{{0, 5}: want, {1, 5}: want}
	if err := checkPushEdges(good, want); err != nil {
		t.Fatalf("exact counts rejected: %v", err)
	}
	for _, off := range []int{-1, 1} {
		bad := map[versionKey]int{{0, 5}: want, {1, 5}: want + off}
		if checkPushEdges(bad, want) == nil {
			t.Fatalf("a push count off by %d accepted", off)
		}
	}
}

func TestFailoverRejectsNoAdvance(t *testing.T) {
	if err := checkFailover(40, 41); err != nil {
		t.Fatalf("advanced version rejected: %v", err)
	}
	if checkFailover(40, 40) == nil {
		t.Fatal("the pre-kill version accepted as fail-over")
	}
}

// fig4CSV renders a figure in experiment fig4's CSV layout from the given
// latency and relative-cost columns.
func fig4CSV(lat [][3]float64, cost [][2]float64) string {
	var b strings.Builder
	b.WriteString("\n== Figure 4 (a): average query latency vs λ (hops, ±95% CI) ==\n\n")
	b.WriteString("λ,PCX,CUP,DUP,PCX ±CI,CUP ±CI,DUP ±CI\n")
	for i, l := range lat {
		fmt.Fprintf(&b, "%.3f,%.3f,%.3f,%.3f,0.010,0.010,0.010\n", fig4Lambdas[i], l[0], l[1], l[2])
	}
	b.WriteString("\n== Figure 4 (b): cost relative to PCX vs λ ==\n\n")
	b.WriteString("λ,CUP/PCX,DUP/PCX\n")
	for i, c := range cost {
		fmt.Fprintf(&b, "%.3f,%.3f,%.3f\n", fig4Lambdas[i], c[0], c[1])
	}
	return b.String()
}

// A figure with the paper's shape: latency falls with λ, DUP is fastest
// and cheapest.
var (
	paperLat  = [][3]float64{{1.3, 1.2, 1.1}, {0.8, 0.7, 0.6}, {0.4, 0.35, 0.3}, {0.2, 0.17, 0.15}, {0.09, 0.07, 0.06}, {0.04, 0.02, 0.02}, {0.01, 0.003, 0.002}}
	paperCost = [][2]float64{{1.02, 0.97}, {1.04, 0.97}, {1.05, 0.96}, {1.05, 0.95}, {1.02, 0.91}, {0.94, 0.83}, {0.68, 0.64}}
)

func TestFig4AcceptsPaperShape(t *testing.T) {
	rows, err := parseFig4(fig4CSV(paperLat, paperCost))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(fig4Lambdas) {
		t.Fatalf("parsed %d rows, want %d", len(rows), len(fig4Lambdas))
	}
	if err := checkFig4(rows); err != nil {
		t.Fatalf("paper-shaped figure rejected: %v", err)
	}
}

func TestFig4RejectsSwappedSchemes(t *testing.T) {
	// DUP and CUP swapped in the cost table.
	cost := make([][2]float64, len(paperCost))
	for i, c := range paperCost {
		cost[i] = [2]float64{c[1], c[0]}
	}
	rows, err := parseFig4(fig4CSV(paperLat, cost))
	if err != nil {
		t.Fatal(err)
	}
	if checkFig4(rows) == nil {
		t.Fatal("DUP costlier than CUP accepted")
	}
	// PCX and DUP swapped in the latency table.
	lat := make([][3]float64, len(paperLat))
	for i, l := range paperLat {
		lat[i] = [3]float64{l[2], l[1], l[0]}
	}
	if rows, err = parseFig4(fig4CSV(lat, paperCost)); err != nil {
		t.Fatal(err)
	}
	if checkFig4(rows) == nil {
		t.Fatal("DUP slower than PCX accepted")
	}
}

func TestFig4RejectsLatencyRisingWithLambda(t *testing.T) {
	lat := append([][3]float64(nil), paperLat...)
	lat[3], lat[4] = lat[4], lat[3]
	rows, err := parseFig4(fig4CSV(lat, paperCost))
	if err != nil {
		t.Fatal(err)
	}
	if checkFig4(rows) == nil {
		t.Fatal("latency rising with λ accepted")
	}
}
