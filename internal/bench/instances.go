package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	reo "repro"
)

// This file measures the multi-instance serving story: many connector
// instances multiplexed over one shared runtime (engine.Runtime). Two
// cells land in the perf-gate schema:
//
//   - InstanceChurn: a full Connect → Send → Recv → Close cycle per
//     iteration. "churn-dedicated" pays a private worker-pool spin-up
//     and tear-down plus a fresh coordinator build per cycle (the
//     per-instance-pool baseline); "churn-shared" connects onto the
//     shared process runtime with pooled reuse (WithRuntime +
//     WithReuse), so a cycle is a pool pop, one value moved, and a
//     reset-recycle. Cycles/s is the rate.
//
//   - ManyInstances: `instances` live connectors attached to the shared
//     runtime at once, fired round-robin from one goroutine. This is
//     the steady-state serving shape (reo-serve's inner loop); ops/s is
//     the rate and the fire path is alloc-free.

// churnSrc is the per-session connector: one buffered lane. A lone
// buffer is not cut, so it plans a single region, which still fires on
// the scheduler.
const churnSrc = `Churn(a;b) = Fifo1(a;b)`

var churnProg = reo.MustCompile(churnSrc)

// InstanceResult is one multi-instance measurement.
type InstanceResult struct {
	Approach  string
	Instances int
	Ops       int
	Elapsed   time.Duration
}

// OpsPerSec returns the measurement's rate: churn cycles/s or
// round-robin ops/s.
func (r InstanceResult) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// RunInstanceChurn times `cycles` full Connect/fire/Close cycles.
// shared=false starts and closes a private one-worker pool per cycle
// (NewRuntime(1) + WithRuntime, the per-instance-pool baseline; one
// worker because the churn connector plans a single region);
// shared=true multiplexes cycles over the process-global runtime with
// pooled instance reuse.
func RunInstanceChurn(cycles int, shared bool) (InstanceResult, error) {
	res := InstanceResult{Approach: "churn-dedicated", Instances: 1, Ops: cycles}
	if shared {
		res.Approach = "churn-shared"
	}
	if cycles < 1 {
		return res, fmt.Errorf("bench: bad churn config (cycles=%d)", cycles)
	}
	conn, err := churnProg.Connector("Churn")
	if err != nil {
		return res, err
	}
	cycle := func() error {
		rt := reo.DefaultRuntime()
		if !shared {
			rt = reo.NewRuntime(1)
			defer rt.Close()
		}
		inst, err := conn.Connect(nil,
			reo.WithPartitioning(reo.PartitionRegions),
			reo.WithRuntime(rt),
			reo.WithReuse(shared),
		)
		if err != nil {
			return err
		}
		defer inst.Close()
		if err := inst.Outport("a").Send(1); err != nil {
			return err
		}
		_, err = inst.Inport("b").Recv()
		return err
	}
	// One warm-up cycle: seeds the instance pool (shared) and faults in
	// the compiled plan, so the measured loop is pure churn.
	if err := cycle(); err != nil {
		return res, err
	}
	start := time.Now()
	for i := 0; i < cycles; i++ {
		if err := cycle(); err != nil {
			return res, err
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// RunManyInstances connects `instances` lanes onto the shared runtime
// (setup untimed), then times `rounds` round-robin passes moving one
// value end to end through every instance. Total ops = instances ×
// rounds.
func RunManyInstances(instances, rounds int) (InstanceResult, error) {
	res := InstanceResult{Approach: "many", Instances: instances, Ops: instances * rounds}
	if instances < 1 || rounds < 1 {
		return res, fmt.Errorf("bench: bad many-instances config (instances=%d rounds=%d)", instances, rounds)
	}
	conn, err := churnProg.Connector("Churn")
	if err != nil {
		return res, err
	}
	type lane struct {
		inst *reo.Instance
		out  reo.Outport
		in   reo.Inport
	}
	lanes := make([]lane, instances)
	for i := range lanes {
		inst, err := conn.Connect(nil,
			reo.WithPartitioning(reo.PartitionRegions),
			reo.WithRuntime(nil),
		)
		if err != nil {
			return res, err
		}
		lanes[i] = lane{inst: inst, out: inst.Outport("a"), in: inst.Inport("b")}
	}
	defer func() {
		for _, l := range lanes {
			l.inst.Close()
		}
	}()
	// Warm every instance once so the measured passes hit steady state.
	for _, l := range lanes {
		if err := l.out.Send(0); err != nil {
			return res, err
		}
		if _, err := l.in.Recv(); err != nil {
			return res, err
		}
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, l := range lanes {
			if err := l.out.Send(r); err != nil {
				return res, err
			}
			if _, err := l.in.Recv(); err != nil {
				return res, err
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// InstanceJSONRows flattens multi-instance results into the perf-gate
// schema: connector "InstanceChurn" (n = 1, rate = cycles/s) or
// "ManyInstances" (n = live instances, rate = ops/s), keyed by
// approach.
func InstanceJSONRows(results []InstanceResult) []CompareRow {
	out := make([]CompareRow, 0, len(results))
	for _, r := range results {
		connector := "InstanceChurn"
		if r.Approach == "many" {
			connector = "ManyInstances"
		}
		out = append(out, CompareRow{
			Approach:    r.Approach,
			Connector:   connector,
			N:           r.Instances,
			StepsPerSec: r.OpsPerSec(),
		})
	}
	return out
}

// WriteInstanceJSON writes multi-instance rows to path in the
// BENCH_fig12.json-compatible schema, so `reoc bench-compare` gates
// them against the checked-in baseline cells.
func WriteInstanceJSON(path string, results []InstanceResult) error {
	data, err := json.MarshalIndent(InstanceJSONRows(results), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
