package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// layer names a span: a call into one module of the program, timed from
// outside around the call, or a request-level span of the benchmark
// itself (a cell, a task, a session, a lane).
type layer uint8

const (
	lSetup         layer = iota // one set-up repetition
	lCompile                    // reo.Compile (parser + sema)
	lTemplate                   // Program.Connector (compile.Build)
	lInstantiate                // Template.Instantiate
	lConnect                    // Connector.Connect
	lClose                      // Instance.Close
	lSend                       // Outport.Send
	lRecv                       // Inport.Recv
	lRemoteConnect              // both nodes' Connect, handshake included
	lCell                       // one connectors cell: connect, drive, close
	lTask                       // one task goroutine of a cell or lane
	lSession                    // one sessions client session
	lLane                       // one remote lane's phase
	numLayers
)

var layerNames = [numLayers]string{
	"setup", "reo.compile", "compile.template", "compile.instantiate",
	"reo.connect", "reo.close", "reo.send", "reo.recv", "remote.connect",
	"req.cell", "req.task", "req.session", "req.lane",
}

func (l layer) String() string { return layerNames[l] }

// span is one recorded call. Times are nanoseconds since the tracer's
// epoch. weight is the sampling factor: a span recorded for one in w
// calls stands for w of them.
type span struct {
	start, end      int64
	id, parent, req uint64
	weight          uint32
	layer           layer
}

// maxSpans bounds the tracer's memory; spans past it are counted, not kept.
const maxSpans = 400_000

// tracer keeps spans in memory, one buffer per goroutine, and writes
// them out when the run ends.
type tracer struct {
	epoch   time.Time
	kept    atomic.Int64
	dropped atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's span buffer. A nil *spanBuf records
// nothing, so untraced code paths pass nil and pay one branch.
type spanBuf struct {
	t     *tracer
	base  uint64
	n     uint64
	spans []span
}

// buf returns a fresh buffer for one goroutine, or nil when t is nil.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{t: t, base: uint64(len(t.bufs)+1) << 32}
	t.bufs = append(t.bufs, b)
	return b
}

// mark is an open span: its id (so children can name it) and start.
type mark struct {
	id    uint64
	start int64
}

// open starts a span. On a nil buffer it returns the zero mark.
func (b *spanBuf) open() mark {
	if b == nil {
		return mark{}
	}
	b.n++
	return mark{id: b.base | b.n, start: int64(time.Since(b.t.epoch))}
}

// close records the span m opened.
func (b *spanBuf) close(m mark, l layer, parent, req uint64, weight uint32) {
	if b == nil {
		return
	}
	end := int64(time.Since(b.t.epoch))
	if b.t.kept.Add(1) > maxSpans {
		b.t.dropped.Add(1)
		return
	}
	b.spans = append(b.spans, span{start: m.start, end: end, id: m.id, parent: parent, req: req, weight: weight, layer: l})
}

// traceSummary is what the per-layer metrics read from the spans.
type traceSummary struct {
	// durs holds span durations (ns) per layer, split by whether the
	// span is part of a set-up repetition.
	durs      [numLayers][]int64
	setupDurs [numLayers][]int64
	// selfNs is each layer's weighted self time: its spans' durations
	// minus the part of each interval its child spans cover.
	selfNs [numLayers]float64
}

// summarize computes durations and self times over every kept span.
// Children recorded at a higher weight than their parent are a sample
// of its children, so their coverage is scaled up by the weight ratio.
func (t *tracer) summarize() *traceSummary {
	var all []span
	for _, b := range t.bufs {
		all = append(all, b.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	find := func(id uint64) int {
		i := sort.Search(len(all), func(i int) bool { return all[i].id >= id })
		if i < len(all) && all[i].id == id {
			return i
		}
		return -1
	}
	s := &traceSummary{}
	kids := make([][]int, len(all))
	// A parent opens before its children, so its id is smaller and it
	// comes first in id order.
	setup := make([]bool, len(all))
	for i, sp := range all {
		p := -1
		if sp.parent != 0 {
			p = find(sp.parent)
		}
		if p >= 0 {
			kids[p] = append(kids[p], i)
			setup[i] = all[p].layer == lSetup || setup[p]
		}
		if setup[i] {
			s.setupDurs[sp.layer] = append(s.setupDurs[sp.layer], sp.end-sp.start)
		} else {
			s.durs[sp.layer] = append(s.durs[sp.layer], sp.end-sp.start)
		}
	}
	for i, sp := range all {
		self := float64(sp.end-sp.start) - coverage(all, sp, kids[i])
		if self < 0 {
			self = 0
		}
		s.selfNs[sp.layer] += float64(sp.weight) * self
	}
	return s
}

// coverage is how much of parent's interval its recorded children cover:
// the union of their intervals, plus, for children sampled more sparsely
// than the parent, the durations of the calls they stand for.
func coverage(all []span, parent span, kids []int) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return all[kids[i]].start < all[kids[j]].start })
	var covered, extra float64
	cur, curEnd := int64(0), int64(-1)
	for _, k := range kids {
		c := all[k]
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi <= lo {
			continue
		}
		if c.weight > parent.weight {
			extra += float64(c.weight/parent.weight-1) * float64(hi-lo)
		}
		if lo > curEnd {
			if curEnd > cur {
				covered += float64(curEnd - cur)
			}
			cur, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	if curEnd > cur {
		covered += float64(curEnd - cur)
	}
	return min(covered+extra, float64(parent.end-parent.start))
}

// write stores every kept span as CSV at path.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,id,parent,req,weight")
	for _, b := range t.bufs {
		for _, s := range b.spans {
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d\n", s.layer, s.start, s.end, s.id, s.parent, s.req, s.weight)
		}
	}
	return w.Flush()
}
