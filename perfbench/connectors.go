package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	reo "repro"
	"repro/internal/connlib"
	"repro/internal/prim"
)

// The connectors workload drives the eighteen connlib connectors at each
// size in cellNs with default Connect options (JIT, unpartitioned), every
// task sending or receiving as fast as it can (§V-B).
var cellNs = []int{4, 32}

const (
	connectorsIntRounds  = 4
	connectorsBulkRounds = 4
	// One task operation in connectorsOpStride is timed for op_p50_us
	// and op_p99_us; one in connectorsSpanStride is traced.
	connectorsOpStride   = 8
	connectorsSpanStride = 256
)

type cell struct {
	def  connlib.Def
	n    int
	conn *reo.Connector
}

type cellResult struct {
	steps, guards, expansions, ops int64
	drive                          time.Duration
}

func runConnectors(e *env) (*report, error) {
	r := newReport(fmt.Sprintf("closed loop; per cell, N of %v sending and/or receiving tasks, one cell at a time", cellNs))
	defs := connlib.All()
	// heap_peak_mb is the live heap with every cell connected: the most
	// instances the workload has open at once. A driven cell's live heap
	// grows with the composite states its JIT cache has explored, which
	// follows the interleaving: too unsteady to gate.
	var heap heapPeak
	t0 := time.Now()

	// A set-up repetition runs before every cell, so set-up is sampled
	// across the whole run rather than in one burst at its start.
	b := e.tr.buf()
	var reps setupSamples
	setupRep := func() error {
		runtime.GC()
		setup, life, allocs, err := connectorsSetupRep(defs, b, &heap)
		reps.add(setup, life, allocs)
		return err
	}
	for range setupWarmup {
		if err := setupRep(); err != nil {
			return nil, err
		}
	}

	var cells []cell
	for _, d := range defs {
		conn, err := d.Compile()
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", d.Name, err)
		}
		for _, n := range cellNs {
			cells = append(cells, cell{def: d, n: n, conn: conn})
		}
	}

	// Every cell runs once per round, in a seeded order; a cell's rate is
	// its median over the rounds. The drive window is the same for every
	// cell of a round: the budget left, shared among the cells left, less
	// what each cell's set-up repetition, collections, connect and close
	// took so far (at first, what the warm-up repetitions took).
	rng := rand.New(rand.NewSource(e.seed))
	pl := newPayloads(e.seed)
	rounds := connectorsIntRounds + connectorsBulkRounds
	overhead := time.Since(t0) / setupWarmup
	var windows time.Duration
	drive0 := time.Now()
	stepRates := make([][]float64, len(cells))
	opRates := make([][]float64, len(cells))
	bulkRates := make([][]float64, len(cells))
	// A cell's op latency quantiles are its medians over the int rounds,
	// and the workload's are their geomean over cells, as for the rates:
	// pooling every cell's samples would make the quantiles follow the
	// mix of fast and slow cells.
	p50s := make([][]float64, len(cells))
	p99s := make([][]float64, len(cells))
	var latN int64
	var tot cellResult
	var allocs uint64
	var nSteps, nDrive [2]float64 // per size in cellNs
	for round := 0; round < rounds; round++ {
		bulk := round >= connectorsIntRounds
		if done := round * len(cells); done > 0 {
			overhead = (time.Since(drive0) - windows) / time.Duration(done)
		}
		left := time.Duration((rounds - round) * len(cells))
		window := max((e.budget-time.Since(t0))/left-overhead, 25*time.Millisecond)
		for _, ci := range rng.Perm(len(cells)) {
			if err := setupRep(); err != nil {
				return nil, err
			}
			c := &cells[ci]
			// Each cell starts from a collected heap, so it does not pay
			// for the garbage of the work before it.
			runtime.GC()
			var h *histogram
			if !bulk {
				h = &histogram{}
			}
			m0 := mallocs()
			res := driveCell(e, c, window, bulk, pl, &r.tally, h)
			windows += window
			secs := res.drive.Seconds()
			if bulk {
				bulkRates[ci] = append(bulkRates[ci], float64(res.ops)/secs)
				continue
			}
			allocs += mallocs() - m0
			p50s[ci] = append(p50s[ci], h.quantile(0.5))
			p99s[ci] = append(p99s[ci], h.quantile(0.99))
			latN += h.count()
			stepRates[ci] = append(stepRates[ci], float64(res.steps)/secs)
			opRates[ci] = append(opRates[ci], float64(res.ops)/secs)
			tot.steps += res.steps
			tot.guards += res.guards
			tot.expansions += res.expansions
			tot.ops += res.ops
			k := 0
			if c.n != cellNs[0] {
				k = 1
			}
			nSteps[k] += float64(res.steps)
			nDrive[k] += secs
		}
	}

	ncells := float64(len(cells))
	r.e2e["setup_s"] = median(reps.setup)
	r.e2e["sessions_per_s"] = ncells / median(reps.life)
	r.layer["go.allocs_per_session"] = median(reps.allocs) / ncells
	r.e2e["steps_per_s"] = geomean(medians(stepRates))
	r.e2e["items_per_s"] = geomean(medians(opRates))
	r.e2e["bulk_items_per_s"] = geomean(medians(bulkRates))
	r.e2e["op_p50_us"] = geomean(medians(p50s)) / 1e3
	r.e2e["op_p99_us"] = geomean(medians(p99s)) / 1e3
	r.samples["op_p50_us"], r.samples["op_p99_us"] = int(latN), int(latN)
	r.layer["engine.steps"] = float64(tot.steps)
	r.layer["engine.guard_evals_per_step"] = float64(tot.guards) / float64(tot.steps)
	r.layer["engine.expansions"] = float64(tot.expansions)
	r.layer["engine.steps_per_s.n4"] = nSteps[0] / nDrive[0]
	r.layer["engine.steps_per_s.n32"] = nSteps[1] / nDrive[1]
	r.layer["go.allocs_per_step"] = float64(allocs) / float64(tot.steps)
	r.layer["go.allocs_per_item"] = float64(allocs) / float64(tot.ops)
	r.e2e["heap_peak_mb"] = heap.mb()
	return r, nil
}

// connectorsSetupRep compiles every connector from source, builds its
// template and connects it at every size, then closes the instances.
// setup is compile + template + connect; life is connect + close, the
// lifecycle of an instance of an already compiled template, and allocs
// the heap objects that lifecycle allocated. With every instance open, it
// samples the live heap. A traced repetition also times
// Template.Instantiate alone, outside the set-up figure.
func connectorsSetupRep(defs []connlib.Def, b *spanBuf, heap *heapPeak) (setup, life time.Duration, allocs uint64, err error) {
	rm := b.open()
	defer b.close(rm, lSetup, 0, rm.id, 1)
	start := time.Now()
	conns := make([]*reo.Connector, len(defs))
	for i, d := range defs {
		m := b.open()
		prog, err := reo.Compile(d.Src)
		b.close(m, lCompile, rm.id, rm.id, 1)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("compile %s: %w", d.Name, err)
		}
		m = b.open()
		conns[i], err = prog.Connector(d.DefName())
		b.close(m, lTemplate, rm.id, rm.id, 1)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("template %s: %w", d.Name, err)
		}
	}
	compiled := time.Since(start)
	if b != nil {
		for i, d := range defs {
			for _, n := range cellNs {
				m := b.open()
				_, err := conns[i].Template().Instantiate(d.Lengths(n))
				b.close(m, lInstantiate, rm.id, rm.id, 1)
				if err != nil {
					return 0, 0, 0, fmt.Errorf("instantiate %s N=%d: %w", d.Name, n, err)
				}
			}
		}
	}
	a0 := mallocs()
	c0 := time.Now()
	insts := make([]*reo.Instance, 0, len(defs)*len(cellNs))
	defer func() {
		for _, inst := range insts {
			inst.Close()
		}
	}()
	for i, d := range defs {
		for _, n := range cellNs {
			m := b.open()
			inst, err := conns[i].Connect(d.Lengths(n))
			b.close(m, lConnect, rm.id, rm.id, 1)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("connect %s N=%d: %w", d.Name, n, err)
			}
			insts = append(insts, inst)
		}
	}
	connected := time.Since(c0)
	m0 := mallocs()
	heap.sample()
	a0 += mallocs() - m0
	c1 := time.Now()
	for _, inst := range insts {
		m := b.open()
		inst.Close()
		b.close(m, lClose, rm.id, rm.id, 1)
	}
	insts = nil
	closed := time.Since(c1)
	return compiled + connected, connected + closed, mallocs() - a0, nil
}

// cellRun is the state the tasks of one cell share.
type cellRun struct {
	e       *env
	name    string
	pl      *payloads
	t       *tally
	lat     *histogram
	bulk    bool
	id      uint64 // the cell span's id: the request id of its spans
	closing atomic.Bool
	ops     atomic.Int64
	// offered[s] is how many values sender s has offered: a delivered
	// value of s must have a smaller seq.
	offered []atomic.Int64
	// holder is the Lock client inside the critical section, or -1.
	holder atomic.Int64
	wg     sync.WaitGroup
}

// driveCell connects one cell, runs its tasks for window, and closes it.
func driveCell(e *env, c *cell, window time.Duration, bulk bool, pl *payloads, t *tally, lat *histogram) cellResult {
	b := e.tr.buf()
	cm := b.open()
	defer b.close(cm, lCell, 0, cm.id, 1)
	cr := &cellRun{e: e, name: fmt.Sprintf("%s N=%d", c.def.Name, c.n), pl: pl, t: t, lat: lat, bulk: bulk, id: cm.id}
	m := b.open()
	inst, err := c.conn.Connect(c.def.Lengths(c.n))
	b.close(m, lConnect, cm.id, cm.id, 1)
	if err != nil {
		t.fail("%s: connect: %v", cr.name, err)
		return cellResult{}
	}
	start := time.Now()
	cr.spawn(inst, c.def.Kind)
	time.Sleep(window)
	res := cellResult{steps: inst.Steps(), guards: inst.GuardEvals(), expansions: inst.Expansions()}
	res.drive = time.Since(start)
	cr.closing.Store(true)
	m = b.open()
	inst.Close()
	b.close(m, lClose, cm.id, cm.id, 1)
	cr.wg.Wait()
	res.ops = cr.ops.Load()
	t.attempted.Add(res.ops)
	if res.steps <= 0 {
		t.fail("%s: no steps fired in %v", cr.name, res.drive)
	}
	return res
}

// spawn starts the tasks of the connector's boundary shape.
func (cr *cellRun) spawn(inst *reo.Instance, kind connlib.Kind) {
	senders := func(param string) {
		ports := inst.Outports(param)
		cr.offered = make([]atomic.Int64, len(ports))
		for i, p := range ports {
			cr.task(func(tc *taskCtx) { tc.sender(p, i) })
		}
	}
	receivers := func(param string) {
		for _, p := range inst.Inports(param) {
			if cr.e.wrapIn != nil {
				p = cr.e.wrapIn(p)
			}
			cr.task(func(tc *taskCtx) { tc.receiver(p) })
		}
	}
	switch kind {
	case connlib.ManyToOne, connlib.OneToMany:
		senders("in")
		receivers("out")
	case connlib.ManyToMany:
		senders("a")
		receivers("b")
	case connlib.GatedManyToMany:
		senders("a")
		receivers("b")
		ctl := inst.Outport("ctl")
		cr.task(func(tc *taskCtx) {
			for k := 0; ; k++ {
				if !tc.send(ctl, k&1) {
					return
				}
			}
		})
	case connlib.ClientsOnly:
		senders("c")
	case connlib.ReceiversOnly:
		for _, p := range inst.Inports("c") {
			cr.task(func(tc *taskCtx) { tc.tokenReceiver(p) })
		}
	case connlib.AcquireRelease:
		acq, rel := inst.Outports("acq"), inst.Outports("rel")
		cr.holder.Store(-1)
		for i := range acq {
			cr.task(func(tc *taskCtx) { tc.lockClient(acq[i], rel[i], i) })
		}
	}
}

// taskCtx is one task goroutine's view: its span buffer, its task span
// and its operation count.
type taskCtx struct {
	cr *cellRun
	b  *spanBuf
	tm mark
	n  int
}

func (cr *cellRun) task(f func(tc *taskCtx)) {
	cr.wg.Add(1)
	go func() {
		defer cr.wg.Done()
		tc := &taskCtx{cr: cr, b: cr.e.tr.buf()}
		tc.tm = tc.b.open()
		f(tc)
		tc.b.close(tc.tm, lTask, cr.id, cr.id, 1)
		cr.ops.Add(int64(tc.n))
	}()
}

// send offers v; it returns false when the task should stop.
func (tc *taskCtx) send(out reo.Outport, v any) bool {
	var t0 time.Time
	timed := tc.cr.lat != nil && tc.n%connectorsOpStride == 0
	if timed {
		t0 = time.Now()
	}
	var m mark
	traced := tc.b != nil && tc.n%connectorsSpanStride == 0
	if traced {
		m = tc.b.open()
	}
	err := out.Send(v)
	if traced {
		tc.b.close(m, lSend, tc.tm.id, tc.cr.id, connectorsSpanStride)
	}
	if timed {
		tc.cr.lat.record(time.Since(t0))
	}
	return tc.done(err)
}

func (tc *taskCtx) recv(in reo.Inport) (any, bool) {
	var t0 time.Time
	timed := tc.cr.lat != nil && tc.n%connectorsOpStride == 0
	if timed {
		t0 = time.Now()
	}
	var m mark
	traced := tc.b != nil && tc.n%connectorsSpanStride == 0
	if traced {
		m = tc.b.open()
	}
	v, err := in.Recv()
	if traced {
		tc.b.close(m, lRecv, tc.tm.id, tc.cr.id, connectorsSpanStride)
	}
	if timed {
		tc.cr.lat.record(time.Since(t0))
	}
	return v, tc.done(err)
}

// done counts a completed operation, or reports a failed one unless the
// cell is closing. It returns false when the task should stop.
func (tc *taskCtx) done(err error) bool {
	if err != nil {
		if !tc.cr.closing.Load() {
			tc.cr.t.fail("%s: %v", tc.cr.name, err)
		}
		return false
	}
	tc.n++
	return true
}

func (tc *taskCtx) sender(out reo.Outport, sid int) {
	for seq := 0; ; seq++ {
		tc.cr.offered[sid].Store(int64(seq + 1))
		if !tc.send(out, tc.cr.pl.value(encode(sid, seq), tc.cr.bulk)) {
			return
		}
	}
}

// receiver checks that every value it gets was sent, and that the values
// of each sender arrive in increasing order.
func (tc *taskCtx) receiver(in reo.Inport) {
	cr := tc.cr
	last := make([]int, len(cr.offered))
	for i := range last {
		last[i] = -1
	}
	for {
		v, ok := tc.recv(in)
		if !ok {
			return
		}
		x, err := cr.pl.decode(v)
		if err != nil {
			cr.t.fail("%s: %v", cr.name, err)
			continue
		}
		s, seq := decodePair(x)
		switch {
		case s < 0 || s >= len(last):
			cr.t.fail("%s: value %#x from unknown sender %d", cr.name, x, s)
		case int64(seq) >= cr.offered[s].Load():
			cr.t.fail("%s: sender %d never sent seq %d", cr.name, s, seq)
		case seq <= last[s]:
			cr.t.fail("%s: sender %d: seq %d delivered after %d", cr.name, s, seq, last[s])
		default:
			last[s] = seq
		}
	}
}

// tokenReceiver takes tokens from a ring that only ever holds the
// connector's own token.
func (tc *taskCtx) tokenReceiver(in reo.Inport) {
	for {
		v, ok := tc.recv(in)
		if !ok {
			return
		}
		if v != (prim.Token{}) {
			tc.cr.t.fail("%s: ring delivered %v, want its token", tc.cr.name, v)
		}
	}
}

// lockClient alternates acquire and release, checking that no other
// client holds the lock between the two.
func (tc *taskCtx) lockClient(acq, rel reo.Outport, id int) {
	cr := tc.cr
	for k := 0; ; k++ {
		if !tc.send(acq, k) {
			return
		}
		if !cr.holder.CompareAndSwap(-1, int64(id)) {
			cr.t.fail("%s: client %d acquired while %d holds the lock", cr.name, id, cr.holder.Load())
		}
		cr.holder.Store(-1)
		if !tc.send(rel, k) {
			return
		}
	}
}
