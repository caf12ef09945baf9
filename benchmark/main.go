// Command benchmark measures the repository end to end: three workloads on
// a live 48-node cluster split over two live.Networks joined by loopback
// TCP, and the paper's Figure 4 on the discrete-event simulator.
//
//	benchmark --workload hot-read --seed 1 --seconds 10 --trace 0
//
// It prints a "report" line with every workload-specific figure and, as
// the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured with no instrumentation beyond the push
// recorder; with --trace 1 the workload runs once untraced and once with
// wrappers timing every call into the transport, journal and scheme
// layers, and the metrics are the per-layer ones plus the tracing
// overhead. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to measurements.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// outcome is what one measured run of a workload produced.
type outcome struct {
	// e2e holds the end-to-end metrics every workload reports.
	e2e metrics
	// p50ms is the workload's median latency, in milliseconds: of a
	// query, of a push reaching a node, or of the whole figure. It is in
	// the report and is what the tracing overhead compares.
	p50ms float64
	// report holds the workload-specific end-to-end figures.
	report metrics
	// layers holds the per-layer figures (traced runs only).
	layers metrics
	// attempted and failed count operations: queries, the fail-over
	// probe, simulator runs.
	attempted, failed int64
	// problems lists every correctness check that did not hold.
	problems []string
	// spans is the traced run's span log (nil untraced).
	spans *slotLog[span]
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// runOpts parametrises one measured run.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	traced  bool
}

type workload struct {
	name string
	run  func(runOpts) (*outcome, error)
}

var workloads = []workload{
	{"hot-read", runHotRead},
	{"cold-read", runColdRead},
	{"propagate", runPropagate},
	{"paper-fig4", runFig4},
}

// result is the final line's schema.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed: drives every generated input")
	seconds := fs.Int("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 runs the workload untraced and then traced and reports per-layer metrics")
	spansDir := fs.String("spans-dir", ".bench_build/spans", "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown --workload %q (want one of %s)", *name, workloadNames())
	case *seconds < 1:
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	o := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second}

	base, err := w.run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	res := result{Attempted: base.attempted, Failed: base.failed, Metrics: base.e2e}
	problems := base.problems
	printReport(stdout, w.name, "untraced", base.report)
	if *trace == 1 {
		o.traced = true
		tr, err := w.run(o)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", w.name, err)
		}
		printReport(stdout, w.name, "traced", tr.report)
		problems = append(problems, tr.problems...)
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		res.Metrics = layerMetrics(base, tr)
		if tr.spans != nil {
			path, err := writeSpans(tr.spans.values(), *spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "benchmark: wrote %d spans to %s (%d dropped past capacity)\n",
				len(tr.spans.values()), path, tr.spans.dropped())
		}
	}
	for _, p := range problems {
		fmt.Fprintln(stderr, "benchmark: check failed:", p)
	}
	res.Correct = len(problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// layerMetrics completes a traced run's per-layer metrics: every name in
// layerNames is present (zero where the workload does not run that
// layer), plus the tracing overhead against the untraced run.
func layerMetrics(base, tr *outcome) metrics {
	out := metrics{}
	for name, unit := range layerNames {
		out.set(name, 0, unit)
	}
	for name, m := range tr.layers {
		if _, ok := layerNames[name]; !ok {
			panic("benchmark: undeclared per-layer metric " + name)
		}
		out[name] = m
	}
	out.set("trace.overhead_p50_pct", pctDiff(tr.p50ms, base.p50ms), "%")
	out.set("trace.overhead_cpu_pct", pctDiff(tr.e2e["cpu_us_per_op"].Value, base.e2e["cpu_us_per_op"].Value), "%")
	return out
}

// layerNames declares every per-layer metric with its unit.
var layerNames = map[string]string{
	"live.query_local_us":        "us",
	"live.query_remote_us":       "us",
	"live.local_hits_per_query":  "ratio",
	"live.pushes_per_version":    "count",
	"live.acks_per_push":         "ratio",
	"live.dup_suppressed":        "count",
	"live.inbox_burst_mean":      "msgs",
	"live.retransmits":           "count",
	"live.root_expiries":         "count",
	"live.subscribes":            "count",
	"live.inbox_drops":           "count",
	"live.handler_ns":            "ns",
	"transport.send_ns":          "ns",
	"transport.frames_per_push":  "ratio",
	"transport.burst_msgs":       "msgs",
	"transport.frames_per_query": "ratio",
	"transport.drops":            "count",
	"wire.frame_bytes":           "B",
	"wire.encode_ns":             "ns",
	"wire.decode_ns":             "ns",
	"store.record_us":            "us",
	"store.record_p99_us":        "us",
	"store.replica_record_us":    "us",
	"store.records_per_version":  "ratio",
	"replica.msgs_per_version":   "ratio",
	"replica.lag_max":            "versions",
	"replica.headroom_min":       "versions",
	"replica.elect_ms":           "ms",
	"sim.events":                 "count",
	"sim.events_per_s":           "1/s",
	"scheme.self_share":          "ratio",
	"trace.overhead_p50_pct":     "%",
	"trace.overhead_cpu_pct":     "%",
}

func pctDiff(traced, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (traced - base) / base * 100
}

func printReport(w io.Writer, name, mode string, m metrics) {
	line, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		Mode     string  `json:"mode"`
		Report   metrics `json:"report"`
	}{name, mode, m})
	if err != nil {
		panic(err) // metrics hold only finite numbers and strings
	}
	fmt.Fprintln(w, "report", string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
