package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	reo "repro"
)

// The sessions workload is the reo-serve serving shape at library level:
// per-session instances of a one-place buffer on the shared runtime,
// pooled and recycled, each used for a few send→recv round trips.
const sessionSrc = `Session(a;b) = Fifo1(a;b)`

const (
	sessionClients   = 2
	sessionsMaxPairs = 16
	// The run is cut into sessionsSlices slices, each starting with
	// sessionsSetupPerSlice set-up repetitions.
	sessionsSlices        = 10
	sessionsSetupPerSlice = 10
	// One round trip in sessionsOpStride is timed for op_p50_us and
	// op_p99_us; one session in sessionsSpanStride is traced whole.
	sessionsOpStride   = 8
	sessionsSpanStride = 512
	// sessionsBulkShare is the share of the run spent in the bulk phase.
	sessionsBulkShare = 0.25
)

func sessionOpts() []reo.ConnectOption {
	return []reo.ConnectOption{
		reo.WithPartitioning(reo.PartitionRegions),
		reo.WithRuntime(nil),
		reo.WithReuse(true),
	}
}

// pooledEngines tracks the instances the workload has seen, by identity:
// a Connect that returns one of them was served from the pool. Every
// instance closed under WithReuse is parked in its pool with its engines
// still attached to the runtime, so after the last Close the runtime
// must hold exactly those engines more than before the run.
type pooledEngines struct {
	mu      sync.Mutex
	seen    map[*reo.Instance]bool
	engines int
}

// parked counts the engines of an instance whose program is then
// dropped: they stay attached, but nothing needs its identity.
func (p *pooledEngines) parked(inst *reo.Instance) {
	p.mu.Lock()
	p.engines += inst.Partitions()
	p.mu.Unlock()
}

// connected records inst and reports whether it was seen before.
func (p *pooledEngines) connected(inst *reo.Instance) (recycled bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.seen[inst] {
		return true
	}
	p.seen[inst] = true
	p.engines += inst.Partitions()
	return false
}

func runSessions(e *env) (*report, error) {
	r := newReport(fmt.Sprintf("closed loop; %d clients, each Connect → 1–%d send→recv round trips → Close", sessionClients, sessionsMaxPairs))
	var heap heapPeak
	t0 := time.Now()
	rt := reo.DefaultRuntime()
	attached0 := rt.Attached()
	pool := &pooledEngines{seen: map[*reo.Instance]bool{}}

	b := e.tr.buf()
	var reps setupSamples
	setupRep := func() error {
		runtime.GC()
		setup, err := sessionsSetupRep(b, pool)
		reps.add(setup, 0, 0)
		return err
	}
	for range setupWarmup {
		if err := setupRep(); err != nil {
			return nil, err
		}
	}
	prog, err := reo.Compile(sessionSrc)
	if err != nil {
		return nil, err
	}
	conn, err := prog.Connector("Session")
	if err != nil {
		return nil, err
	}
	s := &sessionRun{e: e, conn: conn, pl: newPayloads(e.seed), t: &r.tally, pool: pool}

	// The run is cut into slices, each a few set-up repetitions, an int
	// phase and a bulk phase; a rate is its median over the slices.
	var stepRates, sessionRates, itemRates, bulkRates []float64
	var tot phaseResult
	var allocs uint64
	var lat opLatency
	for i := range sessionsSlices {
		for range sessionsSetupPerSlice {
			if err := setupRep(); err != nil {
				return nil, err
			}
		}
		left := (e.budget - time.Since(t0)) / time.Duration(sessionsSlices-i)
		bulkTime := time.Duration(float64(left) * sessionsBulkShare)
		runtime.GC()
		s.lat = &histogram{}
		m0 := mallocs()
		in := s.phase(left-bulkTime, false, &heap)
		lat.add(s.lat)
		allocs += mallocs() - m0
		bulk := s.phase(bulkTime, true, nil)
		secs := in.wall.Seconds()
		stepRates = append(stepRates, float64(in.steps)/secs)
		sessionRates = append(sessionRates, float64(in.sessions)/secs)
		itemRates = append(itemRates, float64(in.pairs)/secs)
		bulkRates = append(bulkRates, float64(bulk.pairs)/bulk.wall.Seconds())
		tot.add(in)
	}

	if got, want := rt.Attached()-attached0, pool.engines; got != want {
		r.fail("runtime: %d engines attached after the last Close, want the %d of the parked pooled instances", got, want)
	}
	r.e2e["setup_s"] = median(reps.setup)
	r.e2e["steps_per_s"] = median(stepRates)
	r.e2e["sessions_per_s"] = median(sessionRates)
	r.e2e["items_per_s"] = median(itemRates)
	r.e2e["bulk_items_per_s"] = median(bulkRates)
	r.setOpLatency(&lat)
	r.layer["engine.steps"] = float64(tot.steps)
	r.layer["engine.guard_evals_per_step"] = float64(tot.guards) / float64(tot.steps)
	r.layer["engine.expansions"] = float64(tot.expansions)
	r.layer["reo.pool_reuse_ratio"] = float64(tot.recycled) / float64(tot.sessions)
	r.layer["go.allocs_per_step"] = float64(allocs) / float64(tot.steps)
	r.layer["go.allocs_per_session"] = float64(allocs) / float64(tot.sessions)
	r.layer["go.allocs_per_item"] = float64(allocs) / float64(tot.pairs)
	r.e2e["heap_peak_mb"] = heap.mb()
	return r, nil
}

// sessionsSetupRep compiles the session program afresh and connects one
// instance per client, then closes them; setup is compile + template +
// connect. A traced repetition also times Template.Instantiate.
func sessionsSetupRep(b *spanBuf, pool *pooledEngines) (setup time.Duration, err error) {
	rm := b.open()
	defer b.close(rm, lSetup, 0, rm.id, 1)
	start := time.Now()
	m := b.open()
	prog, err := reo.Compile(sessionSrc)
	b.close(m, lCompile, rm.id, rm.id, 1)
	if err != nil {
		return 0, err
	}
	m = b.open()
	conn, err := prog.Connector("Session")
	b.close(m, lTemplate, rm.id, rm.id, 1)
	if err != nil {
		return 0, err
	}
	compiled := time.Since(start)
	if b != nil {
		m = b.open()
		_, err := conn.Template().Instantiate(nil)
		b.close(m, lInstantiate, rm.id, rm.id, 1)
		if err != nil {
			return 0, err
		}
	}
	c0 := time.Now()
	var insts [sessionClients]*reo.Instance
	for i := range insts {
		m = b.open()
		insts[i], err = conn.Connect(nil, sessionOpts()...)
		b.close(m, lConnect, rm.id, rm.id, 1)
		if err != nil {
			return 0, err
		}
		pool.parked(insts[i])
	}
	connected := time.Since(c0)
	for _, inst := range insts {
		m = b.open()
		inst.Close()
		b.close(m, lClose, rm.id, rm.id, 1)
	}
	return compiled + connected, nil
}

type sessionRun struct {
	e    *env
	conn *reo.Connector
	pl   *payloads
	t    *tally
	pool *pooledEngines
	lat  *histogram // round trips of the current int phase
}

// phaseResult sums one phase over its clients.
type phaseResult struct {
	wall                      time.Duration
	sessions, pairs, recycled int64
	steps, guards, expansions int64
}

func (p *phaseResult) add(q phaseResult) {
	p.sessions += q.sessions
	p.pairs += q.pairs
	p.recycled += q.recycled
	p.steps += q.steps
	p.guards += q.guards
	p.expansions += q.expansions
}

// phase runs the clients for d, sending ints or bulk payloads. With a
// non-nil heap, it samples the live heap halfway through.
func (s *sessionRun) phase(d time.Duration, bulk bool, heap *heapPeak) phaseResult {
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var tot phaseResult
	var wg sync.WaitGroup
	for c := 0; c < sessionClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := s.client(c, deadline, bulk)
			mu.Lock()
			defer mu.Unlock()
			tot.add(res)
		}()
	}
	if heap != nil {
		time.Sleep(d / 2)
		heap.sample()
	}
	wg.Wait()
	tot.wall = time.Since(start)
	return tot
}

// client loops Connect → a seeded number of send→recv round trips →
// Close until the deadline, checking every echo.
func (s *sessionRun) client(c int, deadline time.Time, bulk bool) (res phaseResult) {
	defer func() { s.t.attempted.Add(res.pairs) }()
	rng := rand.New(rand.NewSource(s.e.seed*sessionClients + int64(c)))
	b := s.e.tr.buf()
	seq := 0
	for sess := 0; time.Now().Before(deadline); sess++ {
		sb := b
		if sess%sessionsSpanStride != 0 {
			sb = nil
		}
		const w = sessionsSpanStride
		sm := sb.open()
		m := sb.open()
		inst, err := s.conn.Connect(nil, sessionOpts()...)
		sb.close(m, lConnect, sm.id, sm.id, w)
		if err != nil {
			s.t.fail("client %d: connect: %v", c, err)
			return res
		}
		if n := inst.Steps(); n != 0 {
			s.t.fail("client %d: connected instance has already fired %d steps", c, n)
		}
		if s.pool.connected(inst) {
			res.recycled++
		}
		out, in := inst.Outport("a"), inst.Inport("b")
		if s.e.wrapIn != nil {
			in = s.e.wrapIn(in)
		}
		pairs := 1 + rng.Intn(sessionsMaxPairs)
		for j := 0; j < pairs; j++ {
			x := encode(c, seq)
			seq++
			timed := !bulk && seq%sessionsOpStride == 0
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			m = sb.open()
			err := out.Send(s.pl.value(x, bulk))
			sb.close(m, lSend, sm.id, sm.id, w)
			if err != nil {
				s.t.fail("client %d: send: %v", c, err)
				break
			}
			m = sb.open()
			v, err := in.Recv()
			sb.close(m, lRecv, sm.id, sm.id, w)
			if timed {
				s.lat.record(time.Since(t0))
			}
			if err != nil {
				s.t.fail("client %d: recv: %v", c, err)
				break
			}
			if got, err := s.pl.decode(v); err != nil {
				s.t.fail("client %d: %v", c, err)
			} else if got != x {
				s.t.fail("client %d: sent %#x, received %#x", c, x, got)
			}
			res.pairs++
		}
		res.steps += inst.Steps()
		res.guards += inst.GuardEvals()
		res.expansions += inst.Expansions()
		m = sb.open()
		err = inst.Close()
		sb.close(m, lClose, sm.id, sm.id, w)
		sb.close(sm, lSession, 0, sm.id, w)
		if err != nil {
			s.t.fail("client %d: close: %v", c, err)
		}
		res.sessions++
	}
	return res
}
