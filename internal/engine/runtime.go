package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the concurrent runtime for region-partitioned
// connectors: a fixed worker pool that runs region engines in response
// to wake-ups. In synchronous mode (no Runtime) every cross-region
// nudge is drained inline by the goroutine that fired (region.go,
// processNudges), so a connector cut into eight regions still burns one
// core; with a runtime, a nudge becomes a wake-up posted to the pool and
// the affected regions fire concurrently.
//
// A Runtime is owned by its caller: NewRuntime starts one that the
// caller closes once every instance attached to it has closed, and
// DefaultRuntime is the process-wide pool that is never closed. Either
// way it multiplexes the regions of arbitrarily many instances over one
// fixed set of workers. Instances attach at construction and detach at
// Close; the pool itself outlives them, so Connect/Close churn spawns
// no goroutines.
//
// Each engine carries a run state (idle / queued / running / dirty)
// advanced by compare-and-swap, which both deduplicates wake-ups (an
// already-queued engine is not queued twice) and guarantees that no
// enablement is lost: a wake-up arriving while the engine runs flips it
// to dirty, and the finishing worker requeues it, so a fire pass
// happens-after every wake. Engines are assigned a home worker
// round-robin at attach (the run queue is keyed by engine); a worker
// whose own queue is empty steals from its siblings before parking, so
// load imbalance between regions does not idle cores.
//
// Queue entries are hints, not ownership: a worker claims an engine by
// CASing queued→running and silently drops entries that lose the race
// (or whose engine went idle via detach). That is what makes detach
// safe without scanning the queues — a stale entry for a detached or
// even pool-recycled engine is at worst one wasted CAS.

// Engine run states (Engine.schedState).
const (
	// schedIdle: quiescent, not queued; a wake-up must enqueue it.
	schedIdle int32 = iota
	// schedQueued: on some worker's run queue awaiting a fire pass.
	schedQueued
	// schedRunning: a worker is inside its fire pass.
	schedRunning
	// schedDirty: running, and a wake-up arrived meanwhile; the worker
	// requeues the engine when the current pass finishes.
	schedDirty
)

// engineRing is one worker's FIFO run queue: a growable ring so the
// steady state — entries cycling through a warm buffer — allocates
// nothing, no matter how many instances churn through the runtime.
type engineRing struct {
	buf  []*Engine
	head int
	n    int
}

func (r *engineRing) push(e *Engine) {
	if r.n == len(r.buf) {
		grown := make([]*Engine, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = e
	r.n++
}

func (r *engineRing) pop() *Engine {
	if r.n == 0 {
		return nil
	}
	e := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return e
}

// Runtime is a worker pool multiplexing the region engines of any
// number of connector instances over a fixed set of goroutines. The
// zero value is not usable; build one with NewRuntime or use
// DefaultRuntime.
type Runtime struct {
	mu sync.Mutex
	// queues[w] is worker w's FIFO run queue. One mutex guards them
	// all: enqueues are O(1) and rare relative to the fires a single
	// wake-up batches, so the runtime lock is not the hot path — the
	// hot path (link push/pop) is lock-free.
	queues   []engineRing
	cond     *sync.Cond
	sleeping int
	// closed is set under mu by Close; atomic so Closed can read it
	// without taking the runtime lock.
	closed atomic.Bool
	wg     sync.WaitGroup
	// nextHome hands out home workers round-robin across attach calls,
	// so the instances of a shared runtime spread over the pool instead
	// of all landing on worker 0.
	nextHome int
	// attached counts currently attached engines (diagnostics).
	attached int
}

// ErrRuntimeClosed is returned when an instance would attach to a
// Runtime whose workers have already been stopped by Close.
var ErrRuntimeClosed = errors.New("engine: runtime is closed")

// defaultRuntime is the lazily started process-global pool backing
// instances connected with WithRuntime(nil).
var (
	defaultRuntime     *Runtime
	defaultRuntimeOnce sync.Once
)

// DefaultRuntime returns the process-global shared runtime, starting
// its GOMAXPROCS workers on first use. It is never shut down.
func DefaultRuntime() *Runtime {
	defaultRuntimeOnce.Do(func() {
		defaultRuntime = NewRuntime(0)
	})
	return defaultRuntime
}

// NewRuntime starts a runtime with the given number of workers (<= 0
// selects GOMAXPROCS). Instances attach to it via Options.Runtime; Close
// stops the workers and must only be called after every attached
// instance has been closed.
func NewRuntime(workers int) *Runtime {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rt := &Runtime{queues: make([]engineRing, workers)}
	rt.cond = sync.NewCond(&rt.mu)
	rt.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go rt.worker(w)
	}
	return rt
}

// Workers returns the pool size.
func (rt *Runtime) Workers() int { return len(rt.queues) }

// Attached returns the number of engines currently multiplexed over
// the pool (diagnostics; racy by nature on a shared runtime).
func (rt *Runtime) Attached() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.attached
}

// Closed reports whether Close has stopped the workers.
func (rt *Runtime) Closed() bool { return rt.closed.Load() }

// attach hands a fresh (or recycled) instance's engines to the pool:
// assigns home workers, then posts the initial wake of every region —
// the worker-pool replacement for the synchronous settle, since
// initially full links can enable relay fires before any task
// operation arrives. The engines must be quiescent (schedIdle) and not
// attached to any runtime. A closed runtime refuses the engines with
// ErrRuntimeClosed: its workers are gone, so no wake would ever run.
func (rt *Runtime) attach(engines []*Engine) error {
	rt.mu.Lock()
	if rt.closed.Load() {
		rt.mu.Unlock()
		return ErrRuntimeClosed
	}
	for _, e := range engines {
		e.sched = rt
		e.homeWorker = int32(rt.nextHome % len(rt.queues))
		rt.nextHome++
		e.schedState.Store(schedIdle)
	}
	rt.attached += len(engines)
	rt.mu.Unlock()
	for _, e := range engines {
		rt.wake(e)
	}
	return nil
}

// detach returns a closing instance's engines to the quiescent state so
// they can be recycled (or collected). Every engine must already be
// closed or broken: closed engines produce no wake-ups, so once each
// one is observed idle it stays idle. Entries still sitting in run
// queues are left behind — workers drop them when the queued→running
// claim fails.
func (rt *Runtime) detach(engines []*Engine) {
	for _, e := range engines {
		for {
			st := e.schedState.Load()
			if st == schedIdle {
				break
			}
			// A queued engine can be reclaimed directly: its queue entry
			// becomes stale and is dropped at pop time. Running or dirty
			// means a worker is (about to be) inside a pass; wait it out.
			if st == schedQueued && e.schedState.CompareAndSwap(schedQueued, schedIdle) {
				break
			}
			runtime.Gosched()
		}
		e.sched = nil
	}
	rt.mu.Lock()
	rt.attached -= len(engines)
	rt.mu.Unlock()
}

// wake requests a fire pass for e, deduplicating against one already
// pending. Safe to call with an engine lock held: it only CASes the
// target's run state and takes the runtime lock (engine locks are never
// acquired under the runtime lock).
func (rt *Runtime) wake(e *Engine) {
	for {
		switch st := e.schedState.Load(); st {
		case schedIdle:
			if e.schedState.CompareAndSwap(schedIdle, schedQueued) {
				rt.enqueue(e)
				return
			}
		case schedRunning:
			if e.schedState.CompareAndSwap(schedRunning, schedDirty) {
				return
			}
		default: // queued or dirty: a pass that sees the change is pending
			return
		}
	}
}

func (rt *Runtime) enqueue(e *Engine) {
	rt.mu.Lock()
	if rt.closed.Load() {
		// Workers are gone; the engine is (being) closed too, so the
		// pass it asked for has nothing left to do.
		rt.mu.Unlock()
		return
	}
	rt.queues[e.homeWorker].push(e)
	if rt.sleeping > 0 {
		rt.cond.Signal()
	}
	rt.mu.Unlock()
}

// next returns the next queue entry for worker w: its own queue first,
// then stolen from a sibling, else it parks. Returns nil on shutdown.
func (rt *Runtime) next(w int) *Engine {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for {
		if rt.closed.Load() {
			return nil
		}
		if e := rt.queues[w].pop(); e != nil {
			return e
		}
		// Steal: scan the siblings round-robin from our right neighbor.
		for i := 1; i < len(rt.queues); i++ {
			if e := rt.queues[(w+i)%len(rt.queues)].pop(); e != nil {
				return e
			}
		}
		rt.sleeping++
		rt.cond.Wait()
		rt.sleeping--
	}
}

func (rt *Runtime) worker(w int) {
	defer rt.wg.Done()
	for {
		e := rt.next(w)
		if e == nil {
			return
		}
		// Claim the entry. A failed claim means the entry is stale — the
		// engine was detached (idle), or another entry for it already ran
		// and it has since been claimed again — and is simply dropped.
		if !e.schedState.CompareAndSwap(schedQueued, schedRunning) {
			continue
		}
		rt.runEngine(e)
	}
}

// runEngine performs one fire pass of e. Wake-ups the pass produced are
// posted by flushWakes while the engine lock is still held (after
// fireLoop returned, so every deferred link commit is published);
// livelock accounting (noteTauProgress) runs there too, against the
// instance's own region group, so one instance's throughput can never
// mask another's relay livelock on a shared pool.
func (rt *Runtime) runEngine(e *Engine) {
	e.mu.Lock()
	if !e.closed && e.broken == nil {
		e.fireLoop(pumpTrigger)
		e.noteTauProgress()
	}
	// Flush nudges even from a pass that broke the engine: link-state
	// changes it made before breaking must still wake the neighbors.
	e.flushWakes()
	e.flushSignals()
	closedNow := e.closed || e.broken != nil
	e.mu.Unlock()
	// Leave the running state: a wake that arrived during the pass
	// flipped it to dirty, and the pass must be rerun — unless the
	// engine is closed or broken, in which case the wake has nothing
	// left to observe and requeueing would keep a dead engine cycling
	// through the pool.
	for {
		if e.schedState.CompareAndSwap(schedRunning, schedIdle) {
			return
		}
		if closedNow {
			if e.schedState.CompareAndSwap(schedDirty, schedIdle) {
				return
			}
		} else if e.schedState.CompareAndSwap(schedDirty, schedQueued) {
			rt.enqueue(e)
			return
		}
	}
}

// Close stops the workers and waits for them to exit. Idempotent. Every
// attached instance must already be closed: pending queue entries are
// dropped, which is only safe because a closed engine's pass has
// nothing to fire. The process-global DefaultRuntime is never closed.
func (rt *Runtime) Close() error {
	rt.mu.Lock()
	if rt.closed.Load() {
		rt.mu.Unlock()
		rt.wg.Wait()
		return nil
	}
	rt.closed.Store(true)
	rt.cond.Broadcast()
	rt.mu.Unlock()
	rt.wg.Wait()
	return nil
}

// flushWakes posts the cross-region wake-ups collected by this engine's
// fires to its runtime and resets the buffer in place, so the scheduler
// path re-uses one nudge buffer forever instead of allocating per pass.
// Called with e.mu held, after fireLoop returned — every link commit
// the fires deferred is published by then, so a woken neighbor always
// observes the queue state that enabled it. (Lock order: engine locks
// may take the runtime lock, never the reverse.)
func (e *Engine) flushWakes() {
	if len(e.outNudges) == 0 {
		return
	}
	rt := e.sched
	for _, t := range e.outNudges {
		rt.wake(t)
	}
	e.outNudges = e.outNudges[:0]
}

// noteCompletion records boundary-operation progress for the τ-livelock
// budget shared by the instance's regions. Called with e.mu held after
// a fire pass (on either the register or the worker path).
func (e *Engine) noteCompletion() {
	if e.fireCompleted && e.group != nil {
		e.group.completions.Add(1)
	}
}

// noteTauProgress advances the engine's τ-burst accounting after a
// worker fire pass: link-only passes with no boundary completion
// anywhere in the instance's region group accumulate, and a full
// MaxTauBurst of them means a token is spinning through pure relay
// regions — a closed cycle of links with no task on it — so the engine
// breaks with ErrLivelock, as the synchronous walk budget would. Any
// group-wide completion since the engine's last pass resets the burst:
// healthy global throughput is not a livelock, even if this engine's
// own diet is pure relay. Called with e.mu held; the counters live on
// the engine (one worker runs an engine at a time, so they need no
// atomicity beyond the lock).
func (e *Engine) noteTauProgress() {
	g := e.group
	if g == nil {
		return
	}
	if e.fireCompleted {
		g.completions.Add(1)
		e.linkBurst = 0
		e.lastSeen = g.completions.Load()
		return
	}
	if !e.fireLinkActive {
		return // quiescent visit; produces no wake-ups, cannot spin
	}
	if cur := g.completions.Load(); cur != e.lastSeen {
		e.lastSeen = cur
		e.linkBurst = 1 // this link-only pass starts a fresh window
		return
	}
	e.linkBurst++
	if e.linkBurst > e.opts.MaxTauBurst {
		e.break_(ErrLivelock)
	}
}
