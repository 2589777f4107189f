package engine

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ca"
)

// This file implements asynchronous-region execution: the run-time half
// of ca.PlanRegions. A region is an ordinary Engine extended with *link
// endpoints* — ports backed by bounded queues that stand in for the
// buffer constituents cut out of the region graph. A link endpoint is
// always ready to accept while its queue is non-full and to offer while
// non-empty, so a region decides its fires with purely local information
// and never takes a neighbor's lock while holding its own. After a fire
// changes link state, the firing goroutine re-fires the affected
// neighbors one at a time (processNudges), so cross-region progress
// needs no background goroutines.

// link is the bounded SPSC queue backing one cut buffer constituent.
// The source region pushes (by firing the buffer's accept port), the
// target region pops (by firing its emit port). All pushes happen under
// the source engine's lock and all pops under the target engine's, so
// each index has exactly one writer at a time and the queue needs no
// lock of its own: buf[t] is written before the tail store releases it,
// and any consumer that loaded the new tail acquires that write. The
// two regions therefore never contend on a mutex, no matter how hot the
// link runs.
type link struct {
	buf []any
	// head is advanced only by the consumer, tail only by the producer.
	// pendPop/pendPush count batch items consumed/produced during a fused
	// burst but not yet published: the burst defers the counter store so
	// k items cost one release store per side (commitPops/commitPushes)
	// instead of k — the cross-core handoff is what a hot link pays for.
	// Each pend counter lives with its side's counter and is only ever
	// touched under that side's engine lock (and is zero whenever that
	// lock is released). Padding keeps the two sides on separate cache
	// lines so the regions do not false-share.
	head     atomic.Int64
	pendPop  int64
	_        [48]byte
	tail     atomic.Int64
	pendPush int64
	_        [48]byte

	// src/dst are the producer/consumer region engines. Either may be
	// nil: the link is then a *half link* of a distributed cut (see
	// transport.go) whose far side lives in another process, serviced by
	// a transport pump instead of a sibling engine.
	src, dst         *Engine
	srcPort, dstPort ca.PortID

	// signal, when non-nil, is the transport pump's one-slot coalescing
	// wake-up for a half link: raised (non-blocking) after the local
	// engine publishes commits the pump must observe — fresh pushes on a
	// producer-local half, fresh pops on a consumer-local half.
	signal chan struct{}
}

func newLink(capacity int) *link {
	if capacity < 1 {
		capacity = 1
	}
	return &link{buf: make([]any, capacity)}
}

// push appends v and publishes it. Producer side only (under the source
// engine's lock).
func (l *link) push(v any) {
	l.pushDefer(v)
	l.commitPushes()
}

// pushDefer stages v in the next free slot without publishing it;
// commitPushes publishes the whole staged run with one tail store.
// Producer side only.
func (l *link) pushDefer(v any) {
	t := l.tail.Load() + l.pendPush
	if t-l.head.Load() >= int64(len(l.buf)) {
		panic("engine: push on full region link (gate invariant violated)")
	}
	l.buf[t%int64(len(l.buf))] = v
	l.pendPush++
}

// commitPushes publishes every deferred push. The slot writes above
// happen-before the single release store, exactly as with per-item
// pushes. Producer side only.
func (l *link) commitPushes() {
	if l.pendPush == 0 {
		return
	}
	l.tail.Store(l.tail.Load() + l.pendPush)
	l.pendPush = 0
}

// pop removes, publishes and returns the head value. Consumer side only
// (under the target engine's lock).
func (l *link) pop() any {
	v := l.popDefer()
	l.commitPops()
	return v
}

// popDefer consumes the current head value without publishing the slot
// back to the producer; commitPops publishes the whole consumed run with
// one head store. Consumer side only.
func (l *link) popDefer() any {
	h := l.head.Load() + l.pendPop
	if l.tail.Load() == h {
		panic("engine: pop on empty region link (gate invariant violated)")
	}
	v := l.buf[h%int64(len(l.buf))]
	l.pendPop++
	return v
}

// commitPops clears the consumed slots (so the queue does not pin
// payloads) and frees them to the producer with one head store.
// Consumer side only.
func (l *link) commitPops() {
	if l.pendPop == 0 {
		return
	}
	h := l.head.Load()
	for i := int64(0); i < l.pendPop; i++ {
		l.buf[(h+i)%int64(len(l.buf))] = nil
	}
	l.head.Store(h + l.pendPop)
	l.pendPop = 0
}

// reset empties the queue and re-seeds it from the plan's link spec,
// returning it to its as-constructed state for instance recycling. Both
// sides must be quiescent: the owning coordinator is closed and its
// engines detached from any runtime, so the plain stores cannot race
// (the next attach publishes them, as construction does).
func (l *link) reset(spec ca.RegionLink) {
	for i := range l.buf {
		l.buf[i] = nil
	}
	l.pendPop, l.pendPush = 0, 0
	l.head.Store(0)
	if spec.Full {
		l.buf[0] = spec.Initial
		l.tail.Store(1)
	} else {
		l.tail.Store(0)
	}
}

// peek returns the value the link currently offers: the head shifted
// past any deferred pops. Consumer side only: the slot is stable until
// the consuming region itself commits, and the consumer observed
// non-empty (an acquiring tail load) when its gate bit was set.
func (l *link) peek() any {
	return l.buf[(l.head.Load()+l.pendPop)%int64(len(l.buf))]
}

// avail returns how many items the link still offers the consumer,
// counting deferred pops as gone. Consumer side only.
func (l *link) avail() int {
	return int(l.tail.Load() - l.head.Load() - l.pendPop)
}

// free returns how many items the link still accepts from the producer,
// counting deferred pushes as used. Producer side only; a stale head
// under-reports, which is at worst a shorter fused burst.
func (l *link) free() int {
	return len(l.buf) - int(l.tail.Load()+l.pendPush-l.head.Load())
}

// empty reports whether the queue offers no value. On the consumer side
// this is exact; elsewhere it may be stale-true, which is at worst a
// missed enable that the producer's wake-up repairs.
func (l *link) empty() bool {
	return l.tail.Load() == l.head.Load()+l.pendPop
}

// full reports whether the queue accepts no value. On the producer side
// this is exact; elsewhere it may be stale-true, repaired by the
// consumer's wake-up.
func (l *link) full() bool {
	return l.tail.Load()+l.pendPush-l.head.Load() == int64(len(l.buf))
}

// regionGroup ties the regions of one connector together for error
// propagation — a broken region breaks its siblings, since the
// connector as a whole can no longer honor its protocol — and for the
// τ-livelock budget: completions counts fire passes anywhere in the
// group that moved a boundary operation forward. Scoping the counter to
// the instance (rather than to the worker pool) keeps livelock
// detection sound on a shared runtime, where another instance's healthy
// throughput must not mask this one's closed relay cycle.
type regionGroup struct {
	engines     []*Engine
	completions atomic.Int64
	// breakWG joins the asynchronous break_ propagation goroutines, so
	// instance recycling cannot reset an engine a stale break is still
	// about to touch.
	breakWG sync.WaitGroup
	// onBreak, when non-nil, is invoked (once per break_, from the
	// propagation goroutine) so a network transport can notify the peer
	// nodes of the failure. Set before Start returns, never mutated
	// after.
	onBreak func(error)
}

func (g *regionGroup) breakOthers(src *Engine, err error) {
	for _, e := range g.engines {
		if e != src {
			e.breakExternal(err)
		}
	}
}

// breakExternal marks the engine broken on behalf of a sibling region.
func (e *Engine) breakExternal(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.broken != nil {
		return
	}
	e.break_(err)
}

// addAccept registers an outbound link at port p (the region pushes into
// it when p fires). Several links may accept at one port: a replicated
// node pushes to all of them in the same fire.
func (e *Engine) addAccept(p ca.PortID, l *link) {
	if e.acceptAt == nil {
		e.acceptAt = make(map[ca.PortID][]*link)
	}
	e.acceptAt[p] = append(e.acceptAt[p], l)
}

// addEmit registers an inbound link at port p (the region pops from it
// when p fires). At most one link may emit at a port — link-level merges
// are excluded by the planner.
func (e *Engine) addEmit(p ca.PortID, l *link) {
	if e.emitAt == nil {
		e.emitAt = make(map[ca.PortID]*link)
	}
	if _, dup := e.emitAt[p]; dup {
		panic("engine: two links emitting at one port")
	}
	e.emitAt[p] = l
}

// initLinks finalizes link-endpoint bookkeeping. Must run after all
// addAccept/addEmit calls and before the engine expands any state (the
// compiled plans depend on which ports are link endpoints).
func (e *Engine) initLinks() {
	if len(e.emitAt) == 0 && len(e.acceptAt) == 0 {
		return
	}
	e.linkGate = e.u.NewSet()
	e.linkOK = e.u.NewSet()
	seen := make(map[ca.PortID]bool)
	for p := range e.emitAt {
		if !seen[p] {
			seen[p] = true
			e.gatePorts = append(e.gatePorts, p)
		}
	}
	for p := range e.acceptAt {
		if !seen[p] {
			seen[p] = true
			e.gatePorts = append(e.gatePorts, p)
		}
	}
	sort.Slice(e.gatePorts, func(i, j int) bool { return e.gatePorts[i] < e.gatePorts[j] })
	for _, p := range e.gatePorts {
		e.linkGate.Set(p)
	}
	e.pushVal = make(map[ca.PortID]any)
	e.refreshLinks()
}

// refreshLinks recomputes every link gate bit. Called with mu held.
// Neighbor activity can only turn gates on (they never consume our
// readiness), so a stale bit is at worst a missed enable that the
// neighbor's nudge repairs.
func (e *Engine) refreshLinks() {
	for _, p := range e.gatePorts {
		e.refreshLinkPort(p)
	}
}

func (e *Engine) refreshLinkPort(p ca.PortID) {
	ok := true
	if l := e.emitAt[p]; l != nil && l.empty() {
		ok = false
	}
	if ok {
		for _, l := range e.acceptAt[p] {
			if l.full() {
				ok = false
				break
			}
		}
	}
	if ok {
		e.linkOK.Set(p)
	} else {
		e.linkOK.Clear(p)
	}
}

// fireLinks performs the link effects of a fired transition: pop every
// emitting endpoint in the sync set, push every accepting one, deliver
// popped values to pending receives, and nudge the neighbors whose gates
// changed. Called with mu held, after the plan executed and before
// pending operations are advanced. Reports whether any endpoint was
// touched (link progress resets the τ-livelock counter: a relay region
// completes no boundary operations but still makes global progress).
//
// With deferred set (the fused batch burst), pops and pushes are staged
// on the queues without publishing the head/tail counters and the gate
// bits are left alone; commitLinks publishes the whole burst with one
// store per endpoint and refreshes the gates. The burst's budget
// (fuseBudget) guarantees the staged run never over- or underflows a
// queue.
func (e *Engine) fireLinks(pl *ca.Plan, deferred bool) bool {
	active := false
	for wi := range pl.Sync {
		if wi >= len(e.linkGate) {
			break
		}
		w := pl.Sync[wi] & e.linkGate[wi]
		for w != 0 {
			p := ca.PortID(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
			active = true
			var v any
			fromLink := false
			if l := e.emitAt[p]; l != nil {
				if deferred {
					v = l.popDefer()
				} else {
					v = l.pop()
				}
				fromLink = true
				if o := e.pend[p]; o != nil && !o.send {
					o.vals[o.cur] = v
				}
				if l.src != nil {
					e.noteNudge(l.src)
				} else {
					e.noteSignal(l) // remote producer: signal the ack pump
				}
			}
			if outs := e.acceptAt[p]; len(outs) > 0 {
				if !fromLink {
					if o := e.pend[p]; o != nil && o.send {
						v = o.vals[o.cur]
					} else if pv, ok := e.pushVal[p]; ok {
						v = pv
					}
				}
				for _, l := range outs {
					if deferred {
						l.pushDefer(v)
					} else {
						l.push(v)
					}
					if l.dst != nil {
						e.noteNudge(l.dst)
					} else {
						e.noteSignal(l) // remote consumer: signal the send pump
					}
				}
			}
			if !deferred {
				e.refreshLinkPort(p)
			}
		}
	}
	for p := range e.pushVal {
		delete(e.pushVal, p)
	}
	return active
}

// commitLinks publishes the deferred pops and pushes a fused burst
// staged on the fired plan's link endpoints — one release store per
// endpoint side, regardless of the burst length — and refreshes the
// affected gate bits. Called with mu held.
func (e *Engine) commitLinks(pl *ca.Plan) {
	for wi := range pl.Sync {
		if wi >= len(e.linkGate) {
			break
		}
		w := pl.Sync[wi] & e.linkGate[wi]
		for w != 0 {
			p := ca.PortID(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
			if l := e.emitAt[p]; l != nil {
				l.commitPops()
			}
			for _, l := range e.acceptAt[p] {
				l.commitPushes()
			}
			e.refreshLinkPort(p)
		}
	}
}

// noteNudge records that a fire changed link state visible to neighbor
// t, which must be re-fired once this engine's lock is released. Called
// with mu held; self-nudges are dropped (the running fireLoop rescans).
func (e *Engine) noteNudge(t *Engine) {
	if t == e {
		return
	}
	for _, x := range e.outNudges {
		if x == t {
			return
		}
	}
	e.outNudges = append(e.outNudges, t)
}

// processNudges delivers cross-region wake-ups collected by this
// engine's fires: it locks each noted neighbor in turn — never holding
// two engine locks at once, so lock order cannot deadlock — and runs its
// fire loop, accumulating any nudges those fires produce in turn
// (a token relaying across several regions is walked to quiescence by
// the goroutine that set it in motion). Must be called WITHOUT mu held.
//
// Every link-state change happens inside some engine's fire loop, and
// the goroutine that ran that loop processes its nudges afterwards, so
// no enablement is ever lost: the neighbor's re-fire happens-after the
// change via its lock acquisition.
//
// A closed cycle of links with no task anywhere on it (a token spinning
// through pure relay regions) would keep the walk alive forever; the
// per-engine τ-burst guard cannot see it because each region's own fire
// loop quiesces after one hop. The walk therefore carries its own
// budget, mirroring the single-engine ErrLivelock on τ bursts.
func (e *Engine) processNudges(work []*Engine) {
	visits := 0
	for len(work) > 0 {
		visits++
		if visits > e.opts.MaxTauBurst {
			e.breakExternal(ErrLivelock)
			return
		}
		t := work[0]
		work = work[1:]
		t.mu.Lock()
		if t.closed || t.broken != nil {
			t.mu.Unlock()
			continue
		}
		t.fireLoop(pumpTrigger)
		t.flushSignals()
		more := t.outNudges
		t.outNudges = nil
		t.mu.Unlock()
		// Deduplicate; e itself may be re-enqueued (a downstream pop can
		// reopen our own gates).
		for _, m := range more {
			seen := false
			for _, w := range work {
				if w == m {
					seen = true
					break
				}
			}
			if !seen {
				work = append(work, m)
			}
		}
	}
}

// deliverNudges drains the cross-region wake-ups captured by a register
// call inline. In runtime mode register already posted them as wake-ups
// under the engine lock (flushWakes) and returned nil, so this only
// ever walks in synchronous mode. Must be called WITHOUT mu held.
func (e *Engine) deliverNudges(nudges []*Engine) {
	if len(nudges) == 0 {
		return
	}
	if rt := e.sched; rt != nil {
		for _, t := range nudges {
			rt.wake(t)
		}
		return
	}
	e.processNudges(nudges)
}

// settle runs the initial fire pass of a freshly built region (and its
// ripple effects): initially full links can enable relay fires before
// any task operation arrives.
func (e *Engine) settle() {
	if e.linkGate == nil {
		return
	}
	e.mu.Lock()
	e.fireLoop(pumpTrigger)
	e.flushSignals()
	nudges := e.outNudges
	e.outNudges = nil
	e.mu.Unlock()
	e.processNudges(nudges)
}

// linkCount returns the number of link endpoints attached to the engine.
func (e *Engine) linkCount() int {
	n := len(e.emitAt)
	for _, ls := range e.acceptAt {
		n += len(ls)
	}
	return n
}

// NewMultiRegions partitions the constituents into asynchronous regions
// (ca.PlanRegions): buffer-shaped constituents whose sides attach to
// different regions become bounded links, every other constituent joins
// the region of its shared ports, and link endpoints without a
// constituent get synthesized single-port node automata. Each region is
// an independently locked engine; cross-region coordination happens only
// through the links, so regions fire concurrently.
//
// Compared to NewMulti (connected components), the region cut also
// splits connectors that are one component: any full buffer decouples
// the consensus on its two sides.
func NewMultiRegions(u *ca.Universe, auts []*ca.Automaton, opts Options) (*Multi, error) {
	return NewMultiRegionsBound(u, auts, opts, nil)
}

// NewMultiRegionsBound is NewMultiRegions with a construction hook: after
// each region's link endpoints are finalized (initLinks) and before it
// expands any state, bind is called with the region index, its planned
// spec, and the region engine. Generated backends use it to install
// static templates via Engine.BindGen; a bind that declines (or fails)
// simply leaves that region interpreted, so mixed instances are fine.
func NewMultiRegionsBound(u *ca.Universe, auts []*ca.Automaton, opts Options, bind func(ri int, spec ca.RegionSpec, eng *Engine)) (*Multi, error) {
	return newMultiRegions(u, auts, opts, Placement{}, bind)
}

// NewMultiRegionsPlaced is NewMultiRegions with a placement: only the
// hosted regions get engines in this process, and the links the
// placement splits are backed by the placement's Transport. Ports of
// remote regions stay routable (operations on them report the remote
// hosting), and the coordinator's statistics sum the local regions only.
func NewMultiRegionsPlaced(u *ca.Universe, auts []*ca.Automaton, opts Options, pl Placement) (*Multi, error) {
	if pl.Transport == nil {
		return nil, errors.New("engine: placement without a transport")
	}
	return newMultiRegions(u, auts, opts, pl, nil)
}

func newMultiRegions(u *ca.Universe, auts []*ca.Automaton, opts Options, placed Placement, bind func(ri int, spec ca.RegionSpec, eng *Engine)) (*Multi, error) {
	if len(auts) == 0 {
		return nil, errors.New("engine: no constituent automata")
	}
	for _, a := range auts {
		if a.U != u {
			return nil, errors.New("engine: constituent from foreign universe")
		}
	}
	plan := ca.PlanRegions(u, auts)
	if placed.Hosted != nil && len(placed.Hosted) != len(plan.Regions) {
		return nil, fmt.Errorf("engine: placement hosts %d regions, plan has %d", len(placed.Hosted), len(plan.Regions))
	}
	hosted := func(ri int) bool { return placed.Hosted == nil || placed.Hosted[ri] }
	tr := placed.Transport
	if tr == nil {
		tr = memTransport{}
	}

	group := &regionGroup{}
	m := &Multi{owner: make([]int, u.NumPorts()), regions: true, plan: plan,
		group: group, transport: placed.Transport}
	for i := range m.owner {
		m.owner[i] = -1
	}
	for ri, spec := range plan.Regions {
		sub := make([]*ca.Automaton, 0, len(spec.Auts)+len(spec.Nodes))
		for _, ai := range spec.Auts {
			sub = append(sub, auts[ai])
		}
		for _, p := range spec.Nodes {
			sub = append(sub, ca.NodeAutomaton(u, p))
		}
		// Every port is owned by its planned region, hosted here or not:
		// engineFor uses the map to name the remote hosting in errors.
		for _, a := range sub {
			a.Ports.ForEach(func(p ca.PortID) { m.owner[p] = ri })
		}
		if !hosted(ri) {
			m.engines = append(m.engines, nil)
			continue
		}
		ropts := opts
		// Distinct per-region streams keep each region's choices
		// reproducible for a given seed — the region index is global to
		// the plan, so a region's stream is identical no matter which
		// process hosts it.
		ropts.Seed = opts.Seed + int64(ri)
		eng, err := newEngine(u, sub, ropts)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("engine: region %d: %w", ri, err)
		}
		eng.group = group
		group.engines = append(group.engines, eng)
		m.engines = append(m.engines, eng)
	}

	for li, lk := range plan.Links {
		prodLocal, consLocal := hosted(lk.From), hosted(lk.To)
		if !prodLocal && !consLocal {
			// Both sides remote: the link is some other process's concern.
			m.links = append(m.links, nil)
			continue
		}
		prod, cons, err := tr.Bind(li, lk, prodLocal, consLocal)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("engine: link %d: %w", li, err)
		}
		if prodLocal {
			prod.src, prod.srcPort = m.engines[lk.From], lk.SrcPort
			prod.src.addAccept(lk.SrcPort, prod)
		}
		if consLocal {
			cons.dst, cons.dstPort = m.engines[lk.To], lk.DstPort
			cons.dst.addEmit(lk.DstPort, cons)
		}
		if prodLocal {
			m.links = append(m.links, prod)
		} else {
			m.links = append(m.links, cons)
		}
	}

	for ri, e := range m.engines {
		if e == nil {
			continue
		}
		e.initLinks()
		if bind != nil {
			bind(ri, plan.Regions[ri], e)
		}
		if err := e.finish(); err != nil {
			m.Close()
			return nil, err
		}
	}
	// Connect the transport before any region fires: pumps must exist
	// before a settle pass raises their signals. (The one-slot signal
	// buffer would also hold one early raise, but a blocking network
	// start after settle could not surface dial errors to the caller.)
	if err := tr.Start(m); err != nil {
		m.Close()
		return nil, fmt.Errorf("engine: transport: %w", err)
	}
	if opts.Runtime != nil {
		// The regions multiplex over the caller's pool. attach posts the
		// initial wake of every region, replacing the synchronous settle
		// — relay fires enabled by initially full links happen on the
		// workers before (or concurrently with) the first Send/Recv,
		// which parks until a fire completes its operation either way.
		if err := opts.Runtime.attach(group.engines); err != nil {
			m.Close()
			return nil, err
		}
		m.sched = opts.Runtime
	} else {
		// Settle initially full links (Fifo1Full seeds) so relay fires
		// that need no task operation happen before the first Send/Recv.
		for _, e := range group.engines {
			e.settle()
		}
	}
	return m, nil
}
