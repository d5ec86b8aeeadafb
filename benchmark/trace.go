package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"chimera"
)

// blockSink is the minimal tracer of the stream latency phases: it learns
// when the block that carried each micro-batch closed, which is the only
// way to see from outside when the engine decided an event's triggering.
// A batch's own block is a BlockEnd with no Considered since the previous
// BlockEnd; the blocks of rule actions (and of failed conditions) follow a
// Considered, and an idle sweep closes an empty block.
//
// Every hook runs on the stream's sweep goroutine; the generator reads
// marks only after a Flush or Close, which orders the accesses.
type blockSink struct {
	chimera.NopTracer
	epoch      time.Time
	considered bool
	events     int64
	marks      []blockMark
}

// blockMark says: the batch block that closed `at` after the epoch brought
// the number of swept events to upTo.
type blockMark struct {
	upTo int64
	at   time.Duration
}

func (s *blockSink) Considered(string, chimera.Time, chimera.Time, int) { s.considered = true }

func (s *blockSink) BlockEnd(n int, _ []string) {
	if s.considered {
		s.considered = false
		return
	}
	if n == 0 {
		return
	}
	s.events += int64(n)
	s.marks = append(s.marks, blockMark{upTo: s.events, at: time.Since(s.epoch)})
}

// Span names. A span's layer is the prefix before the dot.
const (
	spanOp       = "gen.op"         // generator: one unit of work, call to return
	spanTxn      = "engine.txn"     // TransactionStart → TransactionEnd
	spanIngest   = "engine.ingest"  // end of previous block (or txn start) → BlockStart of a user block
	spanBlock    = "engine.block"   // BlockStart → BlockEnd
	spanSweep    = "rules.sweep"    // SweepStart → SweepEnd
	spanConsider = "cond.consider"  // end of previous block → Considered
	spanExec     = "act.exec"       // Considered → Executed
	spanAppend   = "storage.append" // AppendWAL, on the committer goroutine
	spanSync     = "storage.sync"   // SyncWAL, on the committer goroutine
)

// span is one recorded interval. Start and End are nanoseconds since the
// tracer's epoch; Parent indexes the enclosing span (-1 for a root); spans
// of one unit of work share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Self   int64  `json:"self_ns"`
}

// maxSpans bounds the in-memory trace; spans past it are still summed into
// the self-time totals but not kept for the trace file.
const maxSpans = 1 << 20

// openSpan is an entry of a goroutine's stack of open spans.
type openSpan struct {
	name     string
	start    int64
	children int64 // time covered by closed child spans
	idx      int32 // index in spans, -1 when not kept
}

// gtrack is the tracer's view of one goroutine calling into the engine.
type gtrack struct {
	stack        []openSpan
	op           int64
	lastEnd      int64 // end of the previous block, or txn start: where the next consider/ingest span begins
	consideredAt int64
	considered   bool // a Considered since the last BlockEnd
}

// spanTracer is the full tracer of the traced pass. It implements
// chimera.Tracer, takes the generator's op boundaries through opStart and
// opEnd, and is safe for the engine's concurrent transaction lines: hooks
// are keyed by the calling goroutine (the engine calls them synchronously
// on the line's own goroutine).
//
// Self time is a span's duration minus the part its child spans cover; it
// is summed per span name as spans close, so the totals are exact even
// when the trace buffer is full.
type spanTracer struct {
	// stream marks a stream workload: a unit of work is then a micro-batch
	// (op advances at each batch block), not a transaction.
	stream bool
	// multi keys hooks by goroutine id; without it every hook is taken to
	// come from one goroutine, which spares the id lookup.
	multi bool

	mu       sync.Mutex
	epoch    time.Time
	tracks   map[uint64]*gtrack
	spans    []span
	dropped  int64
	durs     map[string][]int64 // durations of the closed spans, per name
	selfs    map[string][]int64 // their self times, in the same order
	bindings int64              // Σ bindings over considerations
	compacts int64              // Compaction hooks
	ops      int64
}

func newSpanTracer(stream, multi bool) *spanTracer {
	t := &spanTracer{stream: stream, multi: multi}
	t.reset()
	return t
}

// reset forgets everything recorded so far and restarts the epoch. Spans
// open at the reset are dropped: their closing hooks find no opening one.
func (t *spanTracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch = time.Now()
	t.tracks = make(map[uint64]*gtrack)
	t.spans, t.dropped, t.ops = nil, 0, 0
	t.durs, t.selfs = make(map[string][]int64), make(map[string][]int64)
	t.bindings, t.compacts = 0, 0
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 17 [running]:"). About a microsecond; used only by the
// traced pass of workloads with concurrent writers.
func goid() uint64 {
	var buf [40]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		id, _ := strconv.ParseUint(string(b[:i]), 10, 64)
		return id
	}
	return 0
}

// track returns the calling goroutine's state; t.mu is held.
func (t *spanTracer) track() *gtrack {
	var id uint64
	if t.multi {
		id = goid()
	}
	g := t.tracks[id]
	if g == nil {
		g = &gtrack{}
		t.tracks[id] = g
	}
	return g
}

func (t *spanTracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *spanTracer) open(g *gtrack, name string, start int64) {
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if n := len(g.stack); n > 0 {
			parent = g.stack[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Op: g.op})
	} else {
		t.dropped++
	}
	g.stack = append(g.stack, openSpan{name: name, start: start, idx: idx})
}

// close ends the innermost open span if it has the given name (a hook
// without its opening hook — tracing switched on mid-flight — is ignored).
func (t *spanTracer) close(g *gtrack, name string, end int64) {
	n := len(g.stack)
	if n == 0 || g.stack[n-1].name != name {
		return
	}
	o := g.stack[n-1]
	g.stack = g.stack[:n-1]
	dur := end - o.start
	t.record(name, dur, dur-o.children)
	if o.idx >= 0 {
		t.spans[o.idx].End, t.spans[o.idx].Self = end, dur-o.children
	}
	if n > 1 {
		g.stack[n-2].children += dur
	}
}

// leaf records a closed childless span [start, end] under the innermost
// open span.
func (t *spanTracer) leaf(g *gtrack, name string, start, end int64) {
	if end < start {
		return
	}
	t.open(g, name, start)
	t.close(g, name, end)
}

func (t *spanTracer) record(name string, dur, self int64) {
	t.durs[name] = append(t.durs[name], dur)
	t.selfs[name] = append(t.selfs[name], self)
}

// opStart and opEnd bracket one unit of work as the generator sees it.
func (t *spanTracer) opStart() {
	t.mu.Lock()
	g := t.track()
	t.ops++
	g.op = t.ops
	t.open(g, spanOp, t.now())
	t.mu.Unlock()
}

func (t *spanTracer) opEnd() {
	t.mu.Lock()
	t.close(t.track(), spanOp, t.now())
	t.mu.Unlock()
}

// storeSpan records an append or sync of the storage wrapper; they run on
// the engine's committer goroutine, beside the transaction lines.
func (t *spanTracer) storeSpan(name string, start time.Time, d time.Duration) {
	t.mu.Lock()
	s := start.Sub(t.epoch).Nanoseconds()
	t.record(name, d.Nanoseconds(), d.Nanoseconds())
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: -1, Self: d.Nanoseconds()})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *spanTracer) TransactionStart(chimera.Time) {
	t.mu.Lock()
	g, now := t.track(), t.now()
	if !t.stream && len(g.stack) == 0 {
		// No generator op around this transaction (set-up, or a stream
		// session's own line): the transaction is the unit of work.
		t.ops++
		g.op = t.ops
	}
	t.open(g, spanTxn, now)
	g.lastEnd, g.considered = now, false
	t.mu.Unlock()
}

func (t *spanTracer) TransactionEnd(bool) {
	t.mu.Lock()
	t.close(t.track(), spanTxn, t.now())
	t.mu.Unlock()
}

func (t *spanTracer) BlockStart(n int) {
	t.mu.Lock()
	g, now := t.track(), t.now()
	if !g.considered {
		// A user block: what ran since the previous block is the line's own
		// operations (stream ingest, Modify, Emit).
		if t.stream && n > 0 {
			t.ops++
			g.op = t.ops
		}
		t.leaf(g, spanIngest, g.lastEnd, now)
	}
	t.open(g, spanBlock, now)
	t.mu.Unlock()
}

func (t *spanTracer) BlockEnd(int, []string) {
	t.mu.Lock()
	g, now := t.track(), t.now()
	t.close(g, spanBlock, now)
	g.lastEnd, g.considered = now, false
	t.mu.Unlock()
}

func (t *spanTracer) SweepStart(chimera.Time) {
	t.mu.Lock()
	t.open(t.track(), spanSweep, t.now())
	t.mu.Unlock()
}

func (t *spanTracer) SweepEnd(int, int) {
	t.mu.Lock()
	t.close(t.track(), spanSweep, t.now())
	t.mu.Unlock()
}

func (t *spanTracer) RuleTriggered(string, chimera.Time, int) {}

func (t *spanTracer) Compaction(int, int, chimera.Time) {
	t.mu.Lock()
	t.compacts++
	t.mu.Unlock()
}

func (t *spanTracer) Considered(_ string, _, _ chimera.Time, bindings int) {
	t.mu.Lock()
	g, now := t.track(), t.now()
	t.leaf(g, spanConsider, g.lastEnd, now)
	t.bindings += int64(bindings)
	g.consideredAt, g.considered = now, true
	t.mu.Unlock()
}

func (t *spanTracer) Executed(string) {
	t.mu.Lock()
	g, now := t.track(), t.now()
	t.leaf(g, spanExec, g.consideredAt, now)
	// The action's block starts now; the time since Considered is spent.
	g.lastEnd = now
	t.mu.Unlock()
}

// spanStats aggregates the closed spans of one name.
type spanStats struct {
	count   int64
	total   int64   // Σ duration, ns
	self    int64   // Σ self time, ns
	p50     float64 // median duration, µs
	selfP50 float64 // median self time, µs
}

func (s spanStats) meanUs() float64 { return ratio(us(s.total), float64(s.count)) }

// traceSummary is what the ledger reads off a finished trace.
type traceSummary struct {
	by       map[string]spanStats
	bindings int64 // Σ bindings over considerations
	compacts int64 // Compaction hooks
}

// summary closes, at the current instant, every span still open (so that
// its self time is accounted) and aggregates the trace per span name.
func (t *spanTracer) summary() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for _, g := range t.tracks {
		for len(g.stack) > 0 {
			t.close(g, g.stack[len(g.stack)-1].name, now)
		}
	}
	sum := traceSummary{by: make(map[string]spanStats, len(t.durs)), bindings: t.bindings, compacts: t.compacts}
	for name, durs := range t.durs {
		st := spanStats{count: int64(len(durs))}
		for i, d := range durs {
			st.total += d
			st.self += t.selfs[name][i]
		}
		st.p50, st.selfP50 = us(quantile(durs, 0.5)), us(quantile(t.selfs[name], 0.5))
		sum.by[name] = st
	}
	return sum
}

// traceFile is what -out receives per workload.
type traceFile struct {
	Workload string                  `json:"workload"`
	Seed     int64                   `json:"seed"`
	Dropped  int64                   `json:"dropped_spans"`
	SelfNs   map[string]int64        `json:"self_ns_by_span"`
	Counters chimera.MetricsSnapshot `json:"registry"`
	Spans    []span                  `json:"spans"`
}

func (t *spanTracer) write(path, workload string, seed int64, snap chimera.MetricsSnapshot) error {
	self := make(map[string]int64)
	for name, st := range t.summary().by {
		self[name] = st.self
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Dropped: t.dropped,
		SelfNs: self, Counters: snap, Spans: t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
