package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	reo "repro"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smokeSeconds is long enough for every connectors cell to fire.
var smokeSeconds = map[string]float64{"connectors": 3, "sessions": 1, "remote": 1}

// checkOutput asserts that every metric of the spec is in the result with
// its unit, and printed on a line of its own with the same unit.
func checkOutput(t *testing.T, res *result, out string, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("run not correct: %d failed of %d\n%s", res.Failed, res.Attempted, out)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, spec names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
		printed := false
		for _, l := range strings.Split(out, "\n") {
			f := strings.Fields(l)
			if len(f) >= 3 && f[0] == m.Name && f[2] == m.Unit {
				printed = true
			}
		}
		if !printed {
			t.Errorf("metric %s not printed with unit %s", m.Name, m.Unit)
		}
	}
}

func TestSpecMatchesMetrics(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		if workloads[w.Name].run == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("spec lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, m := range endToEnd {
		if i >= len(spec.EndToEnd) || spec.EndToEnd[i].Name != m.name || spec.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d]: benchmark has %v", i, m)
		}
	}
}

func TestSmokeUntraced(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := bench(&out, workloads[w.Name].run, w.Name, 1, smokeSeconds[w.Name], false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkOutput(t, res, out.String(), spec.EndToEnd)
			for _, m := range []string{"op_p50_us", "op_p99_us"} {
				if !strings.Contains(out.String(), m+" ") || !strings.Contains(out.String(), "(n=") {
					t.Errorf("%s printed without its sample count", m)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			var out bytes.Buffer
			dir := t.TempDir()
			res, err := bench(&out, workloads[w.Name].run, w.Name, 1, 2*smokeSeconds[w.Name], true, dir)
			if err != nil {
				t.Fatal(err)
			}
			checkOutput(t, res, out.String(), spec.PerLayer)
			if _, err := os.Stat(filepath.Join(dir, w.Name+".csv")); err != nil {
				t.Errorf("spans not written: %v", err)
			}
		})
	}
}

// faultyPort wraps a receiving port and tampers with the n-th value.
type faultyPort struct {
	reo.Inport
	n, at  int
	tamper func(p *faultyPort, v any) (any, error)
	held   []any
}

func (p *faultyPort) Recv() (any, error) {
	if len(p.held) > 0 {
		v := p.held[0]
		p.held = p.held[1:]
		return v, nil
	}
	v, err := p.Inport.Recv()
	if err != nil {
		return v, err
	}
	if p.n++; p.n == p.at {
		return p.tamper(p, v)
	}
	return v, nil
}

func dropOne(p *faultyPort, _ any) (any, error) { return p.Inport.Recv() }

func swapTwo(p *faultyPort, v any) (any, error) {
	next, err := p.Inport.Recv()
	p.held = append(p.held, v)
	return next, err
}

func changeOne(_ *faultyPort, v any) (any, error) {
	if x, ok := v.(int); ok {
		return x + 1, nil
	}
	b := append([]byte(nil), v.([]byte)...)
	b[len(b)-1]++
	return b, nil
}

func TestInjectedFaultsAreCaught(t *testing.T) {
	// A sessions port lives for one session of up to 16 round trips, so
	// its fault comes early.
	cases := []struct {
		name, workload string
		at             int
		tamper         func(p *faultyPort, v any) (any, error)
	}{
		{"remote drops an item", "remote", 50, dropOne},
		{"remote reorders two items", "remote", 50, swapTwo},
		{"sessions echo mismatches", "sessions", 3, changeOne},
		{"connectors reorder two values", "connectors", 50, swapTwo},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := &env{seed: 1, budget: time.Duration(smokeSeconds[c.workload] * float64(time.Second))}
			e.wrapIn = func(in reo.Inport) reo.Inport { return &faultyPort{Inport: in, at: c.at, tamper: c.tamper} }
			r, err := workloads[c.workload].run(e)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed.Load() == 0 {
				t.Fatalf("fault not caught (%d attempted)", r.attempted.Load())
			}
			t.Logf("caught: %d failed, first: %q", r.failed.Load(), r.first[0])
		})
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for v := 1; v <= 100000; v++ {
		h.record(time.Duration(v))
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want within 1%% of %v", q, got, want)
		}
	}
	for _, v := range []uint64{0, 1, 127, 128, 255, 256, 1000, 1 << 20, 1<<40 + 12345} {
		i := bucketOf(v)
		if lo, hi := bucketLow(i), bucketLow(i+1); float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d in bucket %d = [%v, %v)", v, i, lo, hi)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	b := tr.buf()
	// A parent of 100ns with sequential children of 30ns and 20ns, and one
	// child sampled at weight 4 standing for four calls of 10ns.
	b.spans = []span{
		{start: 0, end: 100, id: 1, weight: 1, layer: lSession},
		{start: 10, end: 40, id: 2, parent: 1, weight: 1, layer: lSend},
		{start: 50, end: 70, id: 3, parent: 1, weight: 1, layer: lRecv},
		{start: 80, end: 90, id: 4, parent: 1, weight: 4, layer: lClose},
	}
	s := tr.summarize()
	// Covered: 30 + 20 + 4*10 = 90, so the session's self time is 10.
	if got := s.selfNs[lSession]; got != 10 {
		t.Errorf("session self time %v, want 10", got)
	}
	if got := s.selfNs[lClose]; got != 40 {
		t.Errorf("close self time %v, want 40 (weight 4 × 10)", got)
	}
}
