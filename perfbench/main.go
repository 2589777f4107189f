// Command perfbench is the repository's benchmark: it runs one workload
// against the public reo API in this process, checks every output, and
// prints each metric by name with its unit, then one JSON result line.
//
//	perfbench --workload connectors|sessions|remote --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics for S seconds. With
// --trace 1 it runs the workload twice for S/2 seconds each, untraced and
// then traced, and prints the per-layer metrics: counts from the
// untraced pass, call times and self times from the traced pass's spans,
// and the tracing overhead (traced minus untraced) of every end-to-end
// metric. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	reo "repro"
)

type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run, printed on every workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"steps_per_s", "1/s"},
	{"sessions_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"items_per_s", "1/s"},
	{"bulk_items_per_s", "1/s"},
	{"heap_peak_mb", "MB"},
}

// counted per-layer metrics are counts and ratios the workloads take
// from the program and the Go runtime, without tracing.
var counted = []metric{
	{"engine.steps", "count"},
	{"engine.guard_evals_per_step", "ratio"},
	{"engine.expansions", "count"},
	{"engine.steps_per_s.n4", "1/s"},
	{"engine.steps_per_s.n32", "1/s"},
	{"go.allocs_per_step", "count"},
	{"go.allocs_per_session", "count"},
	{"go.allocs_per_item", "count"},
	{"reo.pool_reuse_ratio", "ratio"},
	{"wire.writes_per_item.int", "count"},
	{"wire.reads_per_item.int", "count"},
	{"wire.bytes_per_item.int", "B"},
	{"wire.writes_per_item.bulk", "count"},
	{"wire.reads_per_item.bulk", "count"},
	{"wire.bytes_per_item.bulk", "B"},
}

// inSetup selects the spans a timed metric reads.
type inSetup uint8

const (
	mainOnly  inSetup = iota // spans outside set-up repetitions
	setupOnly                // spans inside set-up repetitions
	anywhere
)

// timed per-layer metrics are quantiles of one layer's span durations.
var timed = []struct {
	metric
	l     layer
	where inSetup
	q     float64
}{
	{metric{"reo.compile_us", "us"}, lCompile, setupOnly, 0.5},
	{metric{"compile.template_us", "us"}, lTemplate, setupOnly, 0.5},
	{metric{"compile.instantiate_us", "us"}, lInstantiate, setupOnly, 0.5},
	{metric{"reo.connect_us", "us"}, lConnect, setupOnly, 0.5},
	{metric{"reo.connect_ns.p50", "ns"}, lConnect, mainOnly, 0.5},
	{metric{"reo.connect_ns.p99", "ns"}, lConnect, mainOnly, 0.99},
	{metric{"reo.close_ns.p50", "ns"}, lClose, mainOnly, 0.5},
	{metric{"reo.close_ns.p99", "ns"}, lClose, mainOnly, 0.99},
	{metric{"reo.send_ns.p50", "ns"}, lSend, mainOnly, 0.5},
	{metric{"reo.send_ns.p99", "ns"}, lSend, mainOnly, 0.99},
	{metric{"reo.recv_ns.p50", "ns"}, lRecv, mainOnly, 0.5},
	{metric{"reo.recv_ns.p99", "ns"}, lRecv, mainOnly, 0.99},
	{metric{"remote.connect_ms", "ms"}, lRemoteConnect, anywhere, 0.5},
}

var unitScale = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// env is what one pass of a workload runs with.
type env struct {
	seed   int64
	budget time.Duration
	tr     *tracer // nil: untraced
	// wrapIn, when set, wraps every receiving port; tests inject faults
	// through it.
	wrapIn func(reo.Inport) reo.Inport
}

// report is the outcome of one pass.
type report struct {
	tally
	clients string
	e2e     map[string]float64
	layer   map[string]float64
	samples map[string]int
}

func newReport(clients string) *report {
	return &report{clients: clients, e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

// opLatency gathers op_p50_us and op_p99_us over a run's slices.
type opLatency struct {
	p50, p99 []float64
	n        int64
}

// add records the quantiles of one slice's histogram.
func (o *opLatency) add(h *histogram) {
	o.p50 = append(o.p50, h.quantile(0.5))
	o.p99 = append(o.p99, h.quantile(0.99))
	o.n += h.count()
}

// setOpLatency reports each quantile as its median over the slices, so
// one bad stretch of the run does not set it.
func (r *report) setOpLatency(o *opLatency) {
	r.samples["op_p50_us"], r.samples["op_p99_us"] = int(o.n), int(o.n)
	r.e2e["op_p50_us"] = median(o.p50) / 1e3
	r.e2e["op_p99_us"] = median(o.p99) / 1e3
}

// workload is one of the benchmark's workloads and the GOMAXPROCS it
// runs with (capped at the CPUs there are).
type workload struct {
	run   func(*env) (*report, error)
	procs int
}

// connectors and remote run on one P: their figures are the per-step and
// per-item CPU cost of the engine and of the wire path, and tasks
// handing off across two cores made them depend on where the threads
// landed. sessions runs on two, with two clients: cross-core wake and
// park is what it measures.
var workloads = map[string]workload{
	"connectors": {runConnectors, 1},
	"sessions":   {runSessions, 2},
	"remote":     {runRemote, 1},
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type line struct {
	metric
	value float64
	n     int // samples behind a quantile; 0 when not one
}

func main() {
	workload := flag.String("workload", "", "connectors, sessions or remote")
	seed := flag.Int64("seed", 1, "seed the inputs are made from")
	seconds := flag.Float64("seconds", 10, "measuring time")
	trace := flag.Int("trace", 0, "1: per-layer metrics from an untraced and a traced pass")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its spans")
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), wl.procs))
	res, err := bench(os.Stdout, wl.run, *workload, *seed, *seconds, *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench runs the workload, prints its metrics to w one per line and
// returns the result.
func bench(w io.Writer, run func(*env) (*report, error), name string, seed int64, seconds float64, traced bool, traceDir string) (*result, error) {
	budget := time.Duration(seconds * float64(time.Second))
	fmt.Fprintf(w, "workload %s, seed %d, %v, GOMAXPROCS %d\n", name, seed, budget, runtime.GOMAXPROCS(0))
	var lines []line
	var passes []*report
	if !traced {
		r, err := pass(run, &env{seed: seed, budget: budget})
		if err != nil {
			return nil, err
		}
		passes = append(passes, r)
		fmt.Fprintln(w, "load:", r.clients)
		for _, m := range endToEnd {
			lines = append(lines, line{m, r.e2e[m.name], r.samples[m.name]})
		}
	} else {
		plain, err := pass(run, &env{seed: seed, budget: budget / 2})
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		withSpans, err := pass(run, &env{seed: seed, budget: budget / 2, tr: tr})
		if err != nil {
			return nil, err
		}
		passes = append(passes, plain, withSpans)
		fmt.Fprintln(w, "load:", plain.clients)
		lines = layerLines(plain, withSpans, tr.summarize())
		path := filepath.Join(traceDir, name+".csv")
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(w, "spans: %d kept, %d dropped, written to %s\n", tr.kept.Load()-tr.dropped.Load(), tr.dropped.Load(), path)
	}

	res := &result{Metrics: map[string]metricJSON{}}
	for _, p := range passes {
		res.Attempted += p.attempted.Load()
		res.Failed += p.failed.Load()
		for _, msg := range p.first {
			fmt.Fprintln(w, "FAIL:", msg)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	errRatio := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(w, "%-36s %d failed of %d attempted (%.3g)\n", "error_ratio", res.Failed, res.Attempted, errRatio)
	for _, l := range lines {
		v := l.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // not applicable to this workload
		}
		res.Metrics[l.name] = metricJSON{Value: v, Unit: l.unit}
		if l.n > 0 {
			fmt.Fprintf(w, "%-36s %.6g %s (n=%d)\n", l.name, v, l.unit, l.n)
		} else {
			fmt.Fprintf(w, "%-36s %.6g %s\n", l.name, v, l.unit)
		}
	}
	return res, nil
}

// pass runs the workload once from a collected heap.
func pass(run func(*env) (*report, error), e *env) (*report, error) {
	runtime.GC()
	return run(e)
}

// layerLines assembles a traced run's metrics: counts from the untraced
// pass, times from the traced pass's spans, and the overhead of tracing.
func layerLines(plain, withSpans *report, s *traceSummary) []line {
	var lines []line
	for _, t := range timed {
		var ds []int64
		if t.where != setupOnly {
			ds = append(ds, s.durs[t.l]...)
		}
		if t.where != mainOnly {
			ds = append(ds, s.setupDurs[t.l]...)
		}
		lines = append(lines, line{t.metric, quantile(ds, t.q) / unitScale[t.unit], len(ds)})
	}
	for _, m := range counted {
		lines = append(lines, line{metric: m, value: plain.layer[m.name]})
	}
	for l := range numLayers {
		n := len(s.durs[l]) + len(s.setupDurs[l])
		lines = append(lines, line{metric{"self_ms." + l.String(), "ms"}, s.selfNs[l] / 1e6, n})
	}
	for _, m := range endToEnd {
		lines = append(lines, line{metric: metric{"trace_overhead." + m.name, m.unit}, value: withSpans.e2e[m.name] - plain.e2e[m.name]})
	}
	return lines
}
