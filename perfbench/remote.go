package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	reo "repro"
	"repro/internal/ca"
)

// The remote workload splits a lane connector across two nodes of this
// process joined by the TCP transport over loopback: each lane's Fifo1
// is a cut region link, so every item crosses the wire and is acked.
const remoteSrc = `
RemoteLanes(in[];out[]) =
    prod (i:1..#in) Sync(in[i];t[i])
    mult prod (i:1..#in) Fifo1(t[i];out[i])
`

const (
	remoteLanes = 4
	// The run is cut into remoteSlices slices, each starting with
	// remoteSetupPerSlice set-up repetitions.
	remoteSlices        = 10
	remoteSetupPerSlice = 3
	// remoteBulkShare is the share of the run spent in the bulk phase.
	remoteBulkShare = 0.4
	// One item in remoteSpanStride is traced.
	remoteSpanStride = 32
	// remoteStampRing must exceed the items one lane can have in flight.
	remoteStampRing = 1024
)

// wireCounts counts the calls and bytes on one side of the connection.
type wireCounts struct {
	writes, reads, bytes atomic.Int64
}

type wireSnapshot struct{ writes, reads, bytes int64 }

func (w *wireCounts) snapshot() wireSnapshot {
	return wireSnapshot{w.writes.Load(), w.reads.Load(), w.bytes.Load()}
}

// countingListener hands out connections that count Write and Read calls
// and their bytes.
type countingListener struct {
	net.Listener
	w *wireCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, w: l.w}, nil
}

type countingConn struct {
	net.Conn
	w *wireCounts
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.reads.Add(1)
	c.w.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.writes.Add(1)
	c.w.bytes.Add(int64(n))
	return n, err
}

// lanePair is the two halves of one distributed instance: node "a"
// hosts the lanes' senders, node "b" their receivers. "a" dials, so the
// counted connection is the one "b" accepts.
type lanePair struct {
	a, b *reo.Instance
	w    *wireCounts
}

func (p *lanePair) close() {
	p.a.Close()
	p.b.Close()
}

// laneRegions assigns the lane plan's regions to the nodes: the regions
// of the sending ports to "a", those of the receiving ports to "b".
func laneRegions(conn *reo.Connector) (map[string][]int, error) {
	asm, err := conn.Template().Instantiate(laneLengths)
	if err != nil {
		return nil, err
	}
	plan := ca.PlanRegions(asm.U, asm.Auts)
	owner := plan.PortRegions(asm.U, asm.Auts)
	regions := map[string][]int{}
	for node, ports := range map[string][]ca.PortID{"a": asm.Tails["in"], "b": asm.Heads["out"]} {
		for _, p := range ports {
			regions[node] = append(regions[node], owner[p])
		}
	}
	return regions, nil
}

var laneLengths = map[string]int{"in": remoteLanes, "out": remoteLanes}

// connectPair connects both nodes concurrently, as two processes would.
func connectPair(conn *reo.Connector, regions map[string][]int, buf *spanBuf, parent uint64) (*lanePair, error) {
	lns := map[string]net.Listener{}
	nodes := map[string]string{}
	w := &wireCounts{}
	for _, node := range []string{"a", "b"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns[node] = countingListener{Listener: ln, w: w}
		nodes[node] = ln.Addr().String()
	}
	insts := map[string]*reo.Instance{}
	errs := map[string]error{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, node := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := buf
			if b != nil {
				b = buf.t.buf()
			}
			m := b.open()
			inst, err := conn.Connect(laneLengths,
				reo.WithPartitioning(reo.PartitionRegions),
				reo.WithRemoteRegions(&reo.RemoteTopology{Node: node, Nodes: nodes, Regions: regions, Listener: lns[node]}))
			b.close(m, lConnect, parent, parent, 1)
			mu.Lock()
			insts[node], errs[node] = inst, err
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, ln := range lns {
		ln.Close()
	}
	if errs["a"] != nil || errs["b"] != nil {
		for _, inst := range insts {
			if inst != nil {
				inst.Close()
			}
		}
		return nil, fmt.Errorf("connect nodes: a: %v, b: %v", errs["a"], errs["b"])
	}
	return &lanePair{a: insts["a"], b: insts["b"], w: w}, nil
}

func runRemote(e *env) (*report, error) {
	r := newReport(fmt.Sprintf("closed loop; %d lanes, each one sending and one receiving task, both nodes in one process", remoteLanes))
	var heap heapPeak
	t0 := time.Now()
	b := e.tr.buf()
	var reps setupSamples
	setupRep := func() error {
		runtime.GC()
		setup, life, allocs, err := remoteSetupRep(b)
		reps.add(setup, life, allocs)
		return err
	}
	for range setupWarmup {
		if err := setupRep(); err != nil {
			return nil, err
		}
	}

	prog, err := reo.Compile(remoteSrc)
	if err != nil {
		return nil, err
	}
	conn, err := prog.Connector("RemoteLanes")
	if err != nil {
		return nil, err
	}
	regions, err := laneRegions(conn)
	if err != nil {
		return nil, err
	}
	// The run is cut into slices, each a few set-up repetitions, then an
	// int phase and a bulk phase on a freshly connected pair; a rate is
	// its median over the slices.
	var stepRates, itemRates, bulkRates []float64
	var in, bulk lanePhase
	var allocs uint64
	var lat opLatency
	for i := range remoteSlices {
		for range remoteSetupPerSlice {
			if err := setupRep(); err != nil {
				return nil, err
			}
		}
		pm := b.open()
		pair, err := connectPair(conn, regions, b, pm.id)
		b.close(pm, lRemoteConnect, 0, pm.id, 1)
		if err != nil {
			return nil, err
		}
		h := &histogram{}
		run := newLaneRun(e, pair, &r.tally, h)
		left := (e.budget - time.Since(t0)) / time.Duration(remoteSlices-i)
		bulkTime := time.Duration(float64(left) * remoteBulkShare)
		runtime.GC()
		m0 := mallocs()
		pi := run.phase(left-bulkTime, false, &heap)
		allocs += mallocs() - m0
		pb := run.phase(bulkTime, true, nil)
		stepRates = append(stepRates, float64(pi.steps)/pi.wall.Seconds())
		itemRates = append(itemRates, float64(pi.items)/pi.wall.Seconds())
		bulkRates = append(bulkRates, float64(pb.items)/pb.wall.Seconds())
		in.add(pi)
		bulk.add(pb)
		lat.add(h)
		m := b.open()
		run.stop()
		b.close(m, lClose, 0, 0, 1)
	}

	r.e2e["setup_s"] = median(reps.setup)
	r.e2e["sessions_per_s"] = 1 / median(reps.life)
	r.layer["go.allocs_per_session"] = median(reps.allocs)
	r.e2e["steps_per_s"] = median(stepRates)
	r.e2e["items_per_s"] = median(itemRates)
	r.e2e["bulk_items_per_s"] = median(bulkRates)
	r.setOpLatency(&lat)
	r.layer["engine.steps"] = float64(in.steps)
	r.layer["engine.guard_evals_per_step"] = float64(in.guards) / float64(in.steps)
	r.layer["engine.expansions"] = float64(in.expansions)
	r.layer["engine.steps_per_s.n4"] = float64(in.steps) / in.wall.Seconds()
	r.layer["go.allocs_per_step"] = float64(allocs) / float64(in.steps)
	r.layer["go.allocs_per_item"] = float64(allocs) / float64(in.items)
	for _, ph := range []struct {
		name string
		res  lanePhase
	}{{"int", in}, {"bulk", bulk}} {
		n := float64(ph.res.items)
		r.layer["wire.writes_per_item."+ph.name] = float64(ph.res.wire.writes) / n
		r.layer["wire.reads_per_item."+ph.name] = float64(ph.res.wire.reads) / n
		r.layer["wire.bytes_per_item."+ph.name] = float64(ph.res.wire.bytes) / n
	}
	r.e2e["heap_peak_mb"] = heap.mb()
	return r, nil
}

// remoteSetupRep compiles the lane program afresh and connects both
// nodes; setup is compile + template + connect with the handshake, life
// is connect + close and allocs the heap objects that lifecycle
// allocated.
func remoteSetupRep(b *spanBuf) (setup, life time.Duration, allocs uint64, err error) {
	rm := b.open()
	defer b.close(rm, lSetup, 0, rm.id, 1)
	start := time.Now()
	m := b.open()
	prog, err := reo.Compile(remoteSrc)
	b.close(m, lCompile, rm.id, rm.id, 1)
	if err != nil {
		return 0, 0, 0, err
	}
	m = b.open()
	conn, err := prog.Connector("RemoteLanes")
	b.close(m, lTemplate, rm.id, rm.id, 1)
	if err != nil {
		return 0, 0, 0, err
	}
	compiled := time.Since(start)
	if b != nil {
		m = b.open()
		_, err := conn.Template().Instantiate(laneLengths)
		b.close(m, lInstantiate, rm.id, rm.id, 1)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	// The region assignment is the operator's input, not set-up work.
	regions, err := laneRegions(conn)
	if err != nil {
		return 0, 0, 0, err
	}
	a0 := mallocs()
	c0 := time.Now()
	m = b.open()
	pair, err := connectPair(conn, regions, b, m.id)
	b.close(m, lRemoteConnect, rm.id, rm.id, 1)
	if err != nil {
		return 0, 0, 0, err
	}
	connected := time.Since(c0)
	c1 := time.Now()
	m = b.open()
	pair.close()
	b.close(m, lClose, rm.id, rm.id, 1)
	return compiled + connected, connected + time.Since(c1), mallocs() - a0, nil
}

// laneRun drives the lanes of one pair through its phases. Each lane has
// a sending task on node "a" and a receiving task on node "b" that live
// across the phases; the receiver checks it gets exactly 0, 1, 2, … in
// order.
type laneRun struct {
	e    *env
	pair *lanePair
	pl   *payloads
	t    *tally
	lat  *histogram // item latencies of the int phase

	closing atomic.Bool
	recvWG  sync.WaitGroup
	lanes   [remoteLanes]*lane
}

type lane struct {
	in    reo.Outport
	out   reo.Inport
	next  int          // next seq the sender sends
	recvd atomic.Int64 // next seq the receiver expects
	last  atomic.Int64 // when the last item arrived, ns since epoch
	// stamps[seq%remoteStampRing] is when the send of seq started.
	stamps [remoteStampRing]atomic.Int64
}

type lanePhase struct {
	wall                      time.Duration
	items                     int64
	steps, guards, expansions int64
	wire                      wireSnapshot
}

var epoch = time.Now()

func newLaneRun(e *env, pair *lanePair, t *tally, lat *histogram) *laneRun {
	run := &laneRun{e: e, pair: pair, pl: newPayloads(e.seed), t: t, lat: lat}
	ins, outs := pair.a.Outports("in"), pair.b.Inports("out")
	for i := range run.lanes {
		l := &lane{in: ins[i], out: outs[i]}
		if e.wrapIn != nil {
			l.out = e.wrapIn(l.out)
		}
		run.lanes[i] = l
		run.recvWG.Add(1)
		go run.receive(i, l)
	}
	return run
}

// phase sends on every lane until d has passed, then waits until every
// lane has received all it was sent. With a non-nil heap, it samples the
// live heap halfway through.
func (run *laneRun) phase(d time.Duration, bulk bool, heap *heapPeak) lanePhase {
	w0 := run.pair.w.snapshot()
	s0, g0, x0 := run.counters()
	var recvd0 int64
	for _, l := range run.lanes {
		recvd0 += l.recvd.Load()
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, l := range run.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run.send(i, l, deadline, bulk)
		}()
	}
	if heap != nil {
		time.Sleep(d / 2)
		heap.sample()
	}
	wg.Wait()
	// Every item sent must arrive; a lane that stalls has lost one.
	drain := time.Now().Add(10 * time.Second)
	for i, l := range run.lanes {
		for l.recvd.Load() < int64(l.next) && time.Now().Before(drain) {
			time.Sleep(time.Millisecond)
		}
		if got := l.recvd.Load(); got != int64(l.next) {
			run.t.fail("lane %d: received %d items in order, sent %d", i, got, l.next)
		}
	}
	var recvd, last int64
	for _, l := range run.lanes {
		recvd += l.recvd.Load()
		last = max(last, l.last.Load())
	}
	s1, g1, x1 := run.counters()
	w1 := run.pair.w.snapshot()
	return lanePhase{
		wall:       epoch.Add(time.Duration(last)).Sub(start),
		items:      recvd - recvd0,
		steps:      s1 - s0,
		guards:     g1 - g0,
		expansions: x1 - x0,
		wire:       wireSnapshot{w1.writes - w0.writes, w1.reads - w0.reads, w1.bytes - w0.bytes},
	}
}

func (p *lanePhase) add(q lanePhase) {
	p.wall += q.wall
	p.items += q.items
	p.steps += q.steps
	p.guards += q.guards
	p.expansions += q.expansions
	p.wire.writes += q.wire.writes
	p.wire.reads += q.wire.reads
	p.wire.bytes += q.wire.bytes
}

func (run *laneRun) counters() (steps, guards, expansions int64) {
	a, b := run.pair.a, run.pair.b
	return a.Steps() + b.Steps(), a.GuardEvals() + b.GuardEvals(), a.Expansions() + b.Expansions()
}

func (run *laneRun) send(i int, l *lane, deadline time.Time, bulk bool) {
	bf := run.e.tr.buf()
	lm := bf.open()
	defer bf.close(lm, lLane, 0, lm.id, 1)
	for time.Now().Before(deadline) {
		seq := l.next
		l.stamps[seq%remoteStampRing].Store(int64(time.Since(epoch)))
		var m mark
		traced := bf != nil && seq%remoteSpanStride == 0
		if traced {
			m = bf.open()
		}
		err := l.in.Send(run.pl.value(encode(i, seq), bulk))
		if traced {
			bf.close(m, lSend, lm.id, lm.id, remoteSpanStride)
		}
		run.t.attempted.Add(1)
		if err != nil {
			run.t.fail("lane %d: send %d: %v", i, seq, err)
			return
		}
		l.next++
	}
}

func (run *laneRun) receive(i int, l *lane) {
	defer run.recvWG.Done()
	bf := run.e.tr.buf()
	lm := bf.open()
	defer bf.close(lm, lLane, 0, lm.id, 1)
	for n := 0; ; n++ {
		var m mark
		traced := bf != nil && n%remoteSpanStride == 0
		if traced {
			m = bf.open()
		}
		v, err := l.out.Recv()
		if traced {
			bf.close(m, lRecv, lm.id, lm.id, remoteSpanStride)
		}
		now := int64(time.Since(epoch))
		if err != nil {
			if !run.closing.Load() {
				run.t.fail("lane %d: recv: %v", i, err)
			}
			return
		}
		x, err := run.pl.decode(v)
		if err != nil {
			run.t.fail("lane %d: %v", i, err)
			continue
		}
		want := l.recvd.Load()
		if s, seq := decodePair(x); s != i || int64(seq) != want {
			run.t.fail("lane %d: received lane %d seq %d, want seq %d", i, s, seq, want)
			// Resynchronize, so one lost or swapped item fails once.
			if s == i && int64(seq) > want {
				l.recvd.Store(int64(seq) + 1)
			}
			continue
		}
		if _, bulk := v.([]byte); !bulk {
			run.lat.record(time.Duration(now - l.stamps[want%remoteStampRing].Load()))
		}
		l.last.Store(now)
		l.recvd.Add(1)
	}
}

// stop closes both nodes and waits for the receiving tasks.
func (run *laneRun) stop() {
	run.closing.Store(true)
	run.pair.close()
	run.recvWG.Wait()
}
