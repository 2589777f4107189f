// Code generated by "reoc gen" from connector Lane; DO NOT EDIT.

// Package lane is a statically compiled Reo connector: Lane,
// specialized by ahead-of-time joint expansion to 2 composite
// states and 2 transitions. The package is self-contained (standard
// library only) and implements the same name-addressed runtime
// contract as the interpreted engine: Send/Recv and SendBatch/
// RecvBatch keyed by boundary vertex name, Ports(param) lookup, and
// the Steps/GuardEvals/OpsRegistered statistics. Dispatch, guards,
// and data moves are compiled Go control flow; there is no automaton
// structure left at run time.
package lane

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// connectorName names the source definition for diagnostics.
const connectorName = "Lane"

const (
	numPorts     = 2
	numStates    = 2
	numTrans     = 2
	numCells     = 1
	numFilters   = 0
	numXforms    = 0
	initialState = 0
	// maxTauBurst bounds consecutive internal steps that complete no
	// boundary operation, mirroring the interpreted engine's livelock
	// guard.
	maxTauBurst = 1 << 20
)

// portIndex maps boundary vertex names to compact port indices;
// portIsSource tells the sending side from the receiving side.
var portIndex = map[string]int32{
	"a": 0,
	"b": 1,
}

var portIsSource = [numPorts]bool{true, false}

// paramPorts maps connector parameters to their boundary vertex
// names in array order.
var paramPorts = map[string][]string{
	"a": {"a"},
	"b": {"b"},
}

var filterNames [numFilters]string
var xformNames [numXforms]string

// stateTrans lists each composite state's transitions in joint
// order; taus the subset needing no pending operation; byPort the
// per-port dispatch index (state*numPorts+port), mirroring the
// interpreted engine's expanded-state indexes.
var stateTrans = [numStates][]int32{
	{0},
	{1},
}

var taus = [numStates][]int32{
	nil,
	nil,
}

var byPort = [numStates * numPorts][]int32{
	0*numPorts + 0: {0},
	1*numPorts + 1: {1},
}

// transFuse marks pure-flow transitions (no guards, no cell writes,
// self-loop) with at least one boundary port: after such a fire the
// remaining batch items fuse into one burst (see fuse).
var transFuse = [numTrans]bool{false, false}

// initialCells returns the instance memory's initial contents.
func initialCells() [numCells]any {
	return [numCells]any{}
}

// tryEnable appends transition t to the enabled-candidate buffer
// when every boundary port of its synchronization set has a pending
// operation and all data guards hold. Candidate accounting matches
// the interpreted engine: guardEvals counts every candidate whose
// sync set is covered, before its guards run.
func (m *Instance) tryEnable(t int32) {
	switch t {
	case 0: // {a} 1 cell
		if m.pend[0] == nil {
			return
		}
		m.guardEvals.Add(1)
		m.enabled = append(m.enabled, 0)
	case 1: // {b} 1 deliver
		if m.pend[1] == nil {
			return
		}
		m.guardEvals.Add(1)
		m.enabled = append(m.enabled, 1)
	}
}

// fire executes transition t and reports whether any boundary
// operation progressed (the τ-livelock signal). Output values are
// computed before any delivery or cell write, so simultaneous
// read+write of a cell within one step sees the pre-step value —
// the interpreted engine's simultaneity semantics.
func (m *Instance) fire(t int32) bool {
	prog := false
	switch t {
	case 0: // {a} 1 cell
		p0 := m.pend[0]
		v0 := p0.vals[p0.cur]
		m.cells[0] = v0
		m.advance(0, p0)
		prog = true
		m.state = 1
	case 1: // {b} 1 deliver
		p1 := m.pend[1]
		v0 := m.cells[0]
		p1.vals[p1.cur] = v0
		m.advance(1, p1)
		prog = true
		m.state = 0
	}
	m.steps.Add(1)
	return prog
}

// fuse re-fires pure-flow transition t while every pending batch in
// its sync set has items, as one burst under the dispatch decision
// fire already made. Each fused item counts as one global step.
func (m *Instance) fuse(t int32) {
	switch t {
	}
}

// ErrClosed is returned by operations on a closed connector.
var ErrClosed = errors.New(connectorName + ": connector closed")

// ErrPortBusy is returned when a second operation is attempted on a
// port that already has one pending. Ports are single-owner.
var ErrPortBusy = errors.New(connectorName + ": port already has a pending operation")

// ErrLivelock is returned when the connector fires an excessive burst
// of internal steps without completing any boundary operation.
var ErrLivelock = errors.New(connectorName + ": internal-step livelock")

// op is one pending port operation: a batch of items with a cursor.
// Scalar Send/Recv alias the one-slot inline array, so the pooled
// steady state allocates nothing.
type op struct {
	vals   []any
	cur    int
	inline [1]any
	err    error
	done   chan struct{}
}

func (o *op) remaining() int { return len(o.vals) - o.cur }

// pickRNG is the nondeterministic-choice stream: the same xorshift64*
// generator (with splitmix64 seeding) as the interpreted engine, so the
// two backends make identical choice sequences for identical seeds.
type pickRNG struct{ s uint64 }

func (r *pickRNG) reseed(seed int64) {
	z := uint64(seed) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	r.s = z
}

func (r *pickRNG) intn(n int) int {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	x := r.s * 0x2545F4914F6CDD1D
	return int((x >> 32) % uint64(n))
}

// config collects instance options.
type config struct {
	seed    int64
	filters map[string]func(any) bool
	xforms  map[string]func(any) any
}

// Option configures New.
type Option func(*config)

// WithSeed fixes the seed resolving nondeterministic transition choice,
// for reproducible runs (the interpreted engine's WithSeed).
func WithSeed(s int64) Option { return func(c *config) { c.seed = s } }

// WithFuncs registers the data functions the connector's guards and
// transformations reference by name. New fails if a referenced name is
// missing.
func WithFuncs(filters map[string]func(any) bool, xforms map[string]func(any) any) Option {
	return func(c *config) { c.filters, c.xforms = filters, xforms }
}

// Instance is a live connector instance. All methods are safe for
// concurrent use; port operations block until a transition fires, as
// with the interpreted engine.
type Instance struct {
	mu      sync.Mutex
	state   int32
	cells   [numCells]any
	pend    [numPorts]*op
	enabled []int32
	rng     pickRNG
	closed  bool
	broken  error
	filters [numFilters]func(any) bool
	xforms  [numXforms]func(any) any
	opPool  sync.Pool

	steps      atomic.Int64
	guardEvals atomic.Int64
	registered atomic.Int64
}

// New builds an instance in the connector's initial configuration.
func New(opts ...Option) (*Instance, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	m := &Instance{
		state: initialState,
		cells: initialCells(),
	}
	m.rng.reseed(cfg.seed)
	for i, name := range filterNames {
		f := cfg.filters[name]
		if f == nil {
			return nil, fmt.Errorf("%s: no registered filter %q (pass WithFuncs)", connectorName, name)
		}
		m.filters[i] = f
	}
	for i, name := range xformNames {
		f := cfg.xforms[name]
		if f == nil {
			return nil, fmt.Errorf("%s: no registered transformer %q (pass WithFuncs)", connectorName, name)
		}
		m.xforms[i] = f
	}
	return m, nil
}

// Outport is a task's sending end of a boundary vertex.
type Outport struct {
	m    *Instance
	p    int32
	name string
}

// Inport is a task's receiving end of a boundary vertex.
type Inport struct {
	m    *Instance
	p    int32
	name string
}

// Outport returns the sending handle of the named boundary vertex, or
// nil if the name is unknown or not a source.
func (m *Instance) Outport(port string) *Outport {
	i, ok := portIndex[port]
	if !ok || !portIsSource[i] {
		return nil
	}
	return &Outport{m: m, p: i, name: port}
}

// Inport returns the receiving handle of the named boundary vertex, or
// nil if the name is unknown or not a sink.
func (m *Instance) Inport(port string) *Inport {
	i, ok := portIndex[port]
	if !ok || portIsSource[i] {
		return nil
	}
	return &Inport{m: m, p: i, name: port}
}

// Ports returns the boundary vertex names bound to a connector
// parameter, in array order.
func (m *Instance) Ports(param string) []string {
	return append([]string(nil), paramPorts[param]...)
}

// Name returns the vertex name the port is linked to.
func (o *Outport) Name() string { return o.name }

// Name returns the vertex name the port is linked to.
func (i *Inport) Name() string { return i.name }

// Send offers v to the connector and blocks until a transition accepts
// it (or the connector closes).
func (o *Outport) Send(v any) error {
	x := o.m.getOp()
	x.inline[0] = v
	x.vals = x.inline[:1]
	_, err := o.m.runOp(o.p, x)
	return err
}

// SendBatch offers every item of vs in order as one registered
// operation: items are accepted one transition firing at a time, under
// a single registration and completion handshake. The connector reads
// vs in place; do not mutate it until SendBatch returns.
func (o *Outport) SendBatch(vs []any) error {
	if len(vs) == 0 {
		return nil
	}
	x := o.m.getOp()
	x.vals = vs
	_, err := o.m.runOp(o.p, x)
	return err
}

// Recv blocks until the connector delivers a value.
func (i *Inport) Recv() (any, error) {
	x := i.m.getOp()
	x.vals = x.inline[:1]
	if err := i.m.register(i.p, x); err != nil {
		i.m.putOp(x)
		return nil, err
	}
	<-x.done
	v, err := x.inline[0], x.err
	i.m.putOp(x)
	return v, err
}

// RecvBatch blocks until a value has been delivered into every slot of
// buf, returning how many leading slots hold delivered values (len(buf)
// on nil error, possibly fewer when the connector closed mid-batch).
func (i *Inport) RecvBatch(buf []any) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	x := i.m.getOp()
	x.vals = buf
	return i.m.runOp(i.p, x)
}

// Send offers v on the named boundary source vertex (Backend form).
func (m *Instance) Send(port string, v any) error {
	o := m.Outport(port)
	if o == nil {
		return fmt.Errorf("%s: unknown or non-source vertex %q", connectorName, port)
	}
	return o.Send(v)
}

// Recv receives from the named boundary sink vertex (Backend form).
func (m *Instance) Recv(port string) (any, error) {
	i := m.Inport(port)
	if i == nil {
		return nil, fmt.Errorf("%s: unknown or non-sink vertex %q", connectorName, port)
	}
	return i.Recv()
}

// SendBatch sends a batch on the named vertex, returning the number of
// items accepted (Backend form).
func (m *Instance) SendBatch(port string, vs []any) (int, error) {
	o := m.Outport(port)
	if o == nil {
		return 0, fmt.Errorf("%s: unknown or non-source vertex %q", connectorName, port)
	}
	if len(vs) == 0 {
		return 0, nil
	}
	x := m.getOp()
	x.vals = vs
	return m.runOp(o.p, x)
}

// RecvBatch receives a batch on the named vertex (Backend form).
func (m *Instance) RecvBatch(port string, buf []any) (int, error) {
	i := m.Inport(port)
	if i == nil {
		return 0, fmt.Errorf("%s: unknown or non-sink vertex %q", connectorName, port)
	}
	return i.RecvBatch(buf)
}

func (m *Instance) getOp() *op {
	if x := m.opPool.Get(); x != nil {
		return x.(*op)
	}
	return &op{done: make(chan struct{}, 1)}
}

// putOp recycles a completed op, dropping value references so pooled
// ops never pin user payloads between operations.
func (m *Instance) putOp(o *op) {
	o.vals, o.cur, o.err = nil, 0, nil
	o.inline[0] = nil
	m.opPool.Put(o)
}

// runOp drives a prepared op through register/park/complete and
// recycles it, returning the number of items moved.
func (m *Instance) runOp(p int32, o *op) (int, error) {
	if err := m.register(p, o); err != nil {
		m.putOp(o)
		return 0, err
	}
	<-o.done
	n, err := o.cur, o.err
	m.putOp(o)
	return n, err
}

// register pends the operation and runs the fire loop to quiescence.
func (m *Instance) register(p int32, o *op) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.broken != nil {
		return m.broken
	}
	if m.pend[p] != nil {
		return ErrPortBusy
	}
	m.pend[p] = o
	m.registered.Add(1)
	m.fireLoop(p)
	return nil
}

// fireLoop fires enabled transitions until quiescence, with the
// interpreted engine's dispatch discipline: the first iteration
// considers only the transitions the fresh operation on trigger can
// newly enable (the static byPort index) plus internal transitions;
// after a fire the full state scans. Choice among multiple enabled
// candidates is resolved by the seeded RNG over the same candidate
// ordering the interpreted engine produces.
func (m *Instance) fireLoop(trigger int32) {
	if m.broken != nil {
		return
	}
	indexed := true
	tau := 0
	for {
		m.enabled = m.enabled[:0]
		if indexed {
			indexed = false
			byp := byPort[int(m.state)*numPorts+int(trigger)]
			ts := taus[m.state]
			i, j := 0, 0
			for i < len(byp) || j < len(ts) {
				var next int32
				if j >= len(ts) || (i < len(byp) && byp[i] < ts[j]) {
					next = byp[i]
					i++
				} else {
					next = ts[j]
					j++
				}
				m.tryEnable(next)
			}
		} else {
			for _, t := range stateTrans[m.state] {
				m.tryEnable(t)
			}
		}
		if len(m.enabled) == 0 {
			return
		}
		pick := 0
		if len(m.enabled) > 1 {
			pick = m.rng.intn(len(m.enabled))
		}
		t := m.enabled[pick]
		if m.fire(t) {
			tau = 0
		} else {
			tau++
			if tau > maxTauBurst {
				m.break_(ErrLivelock)
				return
			}
		}
		if transFuse[t] {
			m.fuse(t)
		}
	}
}

// advance moves the pending operation on port p one item forward,
// completing it when its batch is exhausted.
func (m *Instance) advance(p int32, o *op) {
	o.cur++
	if o.cur == len(o.vals) {
		m.pend[p] = nil
		o.done <- struct{}{}
	}
}

// bump moves a pending operation k items forward after a fused burst.
func (m *Instance) bump(p int32, o *op, k int) {
	o.cur += k
	if o.cur == len(o.vals) {
		m.pend[p] = nil
		o.done <- struct{}{}
	}
}

// break_ marks the instance broken and fails all pending operations.
func (m *Instance) break_(err error) {
	m.broken = err
	for p, o := range m.pend {
		if o == nil {
			continue
		}
		o.err = err
		m.pend[p] = nil
		o.done <- struct{}{}
	}
}

// Close shuts the connector down; all pending and future operations
// fail with ErrClosed.
func (m *Instance) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	for p, o := range m.pend {
		if o == nil {
			continue
		}
		o.err = ErrClosed
		m.pend[p] = nil
		o.done <- struct{}{}
	}
	return nil
}

// Steps returns the number of global execution steps fired.
func (m *Instance) Steps() int64 { return m.steps.Load() }

// GuardEvals returns how many candidate transitions were considered by
// dispatch (sync set covered), the engine's per-step matching work.
func (m *Instance) GuardEvals() int64 { return m.guardEvals.Load() }

// OpsRegistered returns how many port operations have ever been
// accepted for pending (monotonic).
func (m *Instance) OpsRegistered() int64 { return m.registered.Load() }

// States and Transitions report the compiled automaton's size.
func (m *Instance) States() int { return numStates }

// Transitions reports the number of compiled joint transitions.
func (m *Instance) Transitions() int { return numTrans }
