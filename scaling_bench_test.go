// BenchmarkRegionScaling measures steps/s of buffer-decomposable
// connectors under the partition modes and the worker scheduler. Sweep
// GOMAXPROCS with the standard -cpu flag to see the scaling the region
// cut buys:
//
//	go test -run xxx -bench RegionScaling -cpu 1,4,8
//
// PartitionOff serializes every fire on one lock, so its step rate is
// flat in GOMAXPROCS; PartitionRegions fires each region on its own
// lock, so pipeline stages and ring segments proceed concurrently; the
// "workers" variant additionally posts cross-region nudges to a
// GOMAXPROCS worker pool (reo.NewRuntime + reo.WithRuntime) so region fires are not
// serialized on the nudging goroutine either.
package reo_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	reo "repro"
	"repro/internal/connlib"
)

// scalingWindow is the per-iteration measurement budget.
const scalingWindow = 50 * time.Millisecond

// ringProto is a multi-token ring: every other segment starts full, so
// up to N/2 hops can fire concurrently (the single-token Sequencer is
// inherently serial; this shape exposes the parallelism regions unlock).
const ringProto = `
Ring(;c[]) =
    prod (i:1..#c) Replicator(r[i];c[i],s[i])
    mult prod (i:1..#c/2) Fifo1Full(s[2*i-1];r[2*i])
    mult prod (i:1..#c/2) Fifo1(s[2*i];r[(2*i)%#c+1])
`

// drivePipeline free-runs the stage-coupled pipeline until the instance
// closes; returns a waiter.
func drivePipeline(inst *reo.Instance, n int) func() {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := inst.Inports("in")[i]
			out := inst.Outports("out")[i]
			for {
				v, err := in.Recv()
				if err != nil {
					return
				}
				if out.Send(v) != nil {
					return
				}
			}
		}(i)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		src := inst.Outport("src")
		for k := 0; src.Send(k) == nil; k++ {
		}
	}()
	go func() {
		defer wg.Done()
		snk := inst.Inport("snk")
		for {
			if _, err := snk.Recv(); err != nil {
				return
			}
		}
	}()
	return wg.Wait
}

// driveReceivers free-runs one receiver per port of param c.
func driveReceivers(inst *reo.Instance, param string) func() {
	var wg sync.WaitGroup
	for _, in := range inst.Inports(param) {
		wg.Add(1)
		go func(in reo.Inport) {
			defer wg.Done()
			for {
				if _, err := in.Recv(); err != nil {
					return
				}
			}
		}(in)
	}
	return wg.Wait
}

func BenchmarkRegionScaling(b *testing.B) {
	const n = 8
	rt := reo.NewRuntime(0)
	defer rt.Close()
	modes := []struct {
		name string
		opts []reo.ConnectOption
	}{
		{"off", []reo.ConnectOption{reo.WithPartitioning(reo.PartitionOff)}},
		{"components", []reo.ConnectOption{reo.WithPartitioning(reo.PartitionComponents)}},
		{"regions", []reo.ConnectOption{reo.WithPartitioning(reo.PartitionRegions)}},
		// The worker scheduler: cross-region nudges become wake-ups on a
		// GOMAXPROCS-sized pool instead of inline draining, so region
		// fires occupy every core (compare against "regions" at -cpu 4,8
		// for the scaling the scheduler buys).
		{"workers", []reo.ConnectOption{reo.WithPartitioning(reo.PartitionRegions), reo.WithRuntime(rt)}},
	}

	type setup struct {
		name    string
		connect func(opts ...reo.ConnectOption) (*reo.Instance, func(), error)
	}
	setups := []setup{
		{"pipeline", func(opts ...reo.ConnectOption) (*reo.Instance, func(), error) {
			prog, err := reo.Compile(pipelineProto)
			if err != nil {
				return nil, nil, err
			}
			conn, err := prog.Connector("Pipeline")
			if err != nil {
				return nil, nil, err
			}
			inst, err := conn.Connect(map[string]int{"out": n, "in": n}, opts...)
			if err != nil {
				return nil, nil, err
			}
			return inst, drivePipeline(inst, n), nil
		}},
		{"ring", func(opts ...reo.ConnectOption) (*reo.Instance, func(), error) {
			prog, err := reo.Compile(ringProto)
			if err != nil {
				return nil, nil, err
			}
			conn, err := prog.Connector("Ring")
			if err != nil {
				return nil, nil, err
			}
			inst, err := conn.Connect(map[string]int{"c": n}, opts...)
			if err != nil {
				return nil, nil, err
			}
			return inst, driveReceivers(inst, "c"), nil
		}},
		{"async-merger", func(opts ...reo.ConnectOption) (*reo.Instance, func(), error) {
			d, err := connlib.ByName("EarlyAsyncMerger")
			if err != nil {
				return nil, nil, err
			}
			inst, err := d.Connect(n, opts...)
			if err != nil {
				return nil, nil, err
			}
			return inst, connlib.Drive(d, inst, n), nil
		}},
	}

	for _, s := range setups {
		for _, m := range modes {
			b.Run(fmt.Sprintf("%s/%s", s.name, m.name), func(b *testing.B) {
				var totalSteps int64
				var totalTime time.Duration
				regions, workers := 0, 0
				for i := 0; i < b.N; i++ {
					inst, wait, err := s.connect(m.opts...)
					if err != nil {
						b.Fatal(err)
					}
					regions, workers = inst.Partitions(), inst.Workers()
					time.Sleep(scalingWindow)
					totalSteps += inst.Steps()
					totalTime += scalingWindow
					inst.Close()
					wait()
				}
				b.ReportMetric(float64(totalSteps)/totalTime.Seconds(), "steps/s")
				b.ReportMetric(float64(regions), "regions")
				b.ReportMetric(float64(workers), "workers")
			})
		}
	}
}
