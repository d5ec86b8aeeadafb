package engine

import (
	"fmt"
	"io"

	"chimera/internal/clock"
)

// Tracer observes the rule-processing loop as structured lifecycle
// spans: transaction boundaries, non-interruptible block close spans
// (BlockStart brackets the triggering determination and compaction that
// run while a block seals; BlockEnd closes the span), the triggering
// sweep, compaction, and per-rule triggering/consideration/execution
// events. A tracer makes the Section 5 machinery visible — which block
// generated which triggering, what each consideration decided, and what
// the generational Event Base retired.
//
// All hooks are called synchronously from the engine; implementations
// must be fast and must not call back into the database. Every span
// loads the installed tracer once and guards its calls with a nil check,
// so a database without a tracer pays one atomic load and one
// predictable branch per span — nothing else. Instrumentation
// is observably inert: the differential suite pins traced and untraced
// runs to identical triggerings and final states.
//
// BlockStart and BlockEnd are strictly balanced: every block close
// emits exactly one of each, in order, with the same occurrence count
// (the fuzz harness asserts this invariant on arbitrary workloads).
// Embed NopTracer to implement only the hooks of interest.
type Tracer interface {
	// BlockStart fires when a non-interruptible block begins closing,
	// with the number of occurrences it generated. The triggering
	// determination and compaction happen inside the span.
	BlockStart(events int)
	// BlockEnd closes the block span, with the occurrence count and the
	// rules the block newly triggered.
	BlockEnd(events int, triggered []string)
	// SweepStart fires before the triggering determination of a block
	// boundary, at the check instant.
	SweepStart(at clock.Time)
	// SweepEnd fires after the determination, with the number of rules
	// examined and the number newly triggered.
	SweepEnd(examined, fired int)
	// RuleTriggered fires for each rule the determination newly
	// triggered: the activation instant and the net effect driving it —
	// the number of occurrences in the rule's relevant window (since its
	// last consideration) up to the activation.
	RuleTriggered(rule string, at clock.Time, events int)
	// Compaction fires when the Event Base retires segments below the
	// consumption low-watermark (only when something was retired).
	Compaction(occurrences, segments int, watermark clock.Time)
	// Considered fires at every rule consideration with the event-formula
	// window and the number of satisfying bindings (the condition failed
	// when bindings == 0).
	Considered(rule string, since, at clock.Time, bindings int)
	// Executed fires after a rule's action ran.
	Executed(rule string)
	// TransactionStart fires when a transaction opens, with its start
	// instant.
	TransactionStart(start clock.Time)
	// TransactionEnd fires at commit (committed=true) or rollback.
	TransactionEnd(committed bool)
}

// SetTracer installs (or removes, with nil) the tracer. It may be called
// while lines run: a block, a consideration and a transaction each
// report to the tracer installed when they began, so every span a tracer
// sees opened is also closed there.
func (db *DB) SetTracer(tr Tracer) {
	if tr == nil {
		db.tracer.Store(nil)
		return
	}
	db.tracer.Store(&tracerBox{tr})
}

// tracerBox holds a Tracer behind the pointer DB.tracer swaps.
type tracerBox struct{ Tracer }

// loadTracer returns the installed tracer, or nil.
func (db *DB) loadTracer() Tracer {
	if b := db.tracer.Load(); b != nil {
		return b.Tracer
	}
	return nil
}

// NopTracer implements every Tracer hook as a no-op. Embed it to build
// tracers that care about a subset of the lifecycle.
type NopTracer struct{}

// BlockStart implements Tracer.
func (NopTracer) BlockStart(int) {}

// BlockEnd implements Tracer.
func (NopTracer) BlockEnd(int, []string) {}

// SweepStart implements Tracer.
func (NopTracer) SweepStart(clock.Time) {}

// SweepEnd implements Tracer.
func (NopTracer) SweepEnd(int, int) {}

// RuleTriggered implements Tracer.
func (NopTracer) RuleTriggered(string, clock.Time, int) {}

// Compaction implements Tracer.
func (NopTracer) Compaction(int, int, clock.Time) {}

// Considered implements Tracer.
func (NopTracer) Considered(string, clock.Time, clock.Time, int) {}

// Executed implements Tracer.
func (NopTracer) Executed(string) {}

// TransactionStart implements Tracer.
func (NopTracer) TransactionStart(clock.Time) {}

// TransactionEnd implements Tracer.
func (NopTracer) TransactionEnd(bool) {}

// WriterTracer renders every span type as a text line.
type WriterTracer struct {
	W io.Writer
	// Verbose additionally renders the span-level plumbing (block start,
	// sweep start/end, per-rule triggerings); the default renders the
	// compact stream the worked examples and docs show.
	Verbose bool
}

// BlockStart implements Tracer.
func (t WriterTracer) BlockStart(events int) {
	if t.Verbose {
		fmt.Fprintf(t.W, "trace: block start (%d events)\n", events)
	}
}

// BlockEnd implements Tracer.
func (t WriterTracer) BlockEnd(events int, triggered []string) {
	if len(triggered) > 0 {
		fmt.Fprintf(t.W, "trace: block end (%d events) triggered %v\n", events, triggered)
		return
	}
	fmt.Fprintf(t.W, "trace: block end (%d events)\n", events)
}

// SweepStart implements Tracer.
func (t WriterTracer) SweepStart(at clock.Time) {
	if t.Verbose {
		fmt.Fprintf(t.W, "trace: sweep start at t%d\n", at)
	}
}

// SweepEnd implements Tracer.
func (t WriterTracer) SweepEnd(examined, fired int) {
	if t.Verbose {
		fmt.Fprintf(t.W, "trace: sweep end (%d rules examined, %d fired)\n", examined, fired)
	}
}

// RuleTriggered implements Tracer.
func (t WriterTracer) RuleTriggered(rule string, at clock.Time, events int) {
	if t.Verbose {
		fmt.Fprintf(t.W, "trace: triggered %s at t%d (%d events in window)\n", rule, at, events)
	}
}

// Compaction implements Tracer.
func (t WriterTracer) Compaction(occurrences, segments int, watermark clock.Time) {
	fmt.Fprintf(t.W, "trace: compacted %d events (%d segments) at or below t%d\n",
		occurrences, segments, watermark)
}

// Considered implements Tracer.
func (t WriterTracer) Considered(rule string, since, at clock.Time, bindings int) {
	verdict := "condition holds"
	if bindings == 0 {
		verdict = "condition fails"
	}
	fmt.Fprintf(t.W, "trace: consider %s over (t%d, t%d]: %s (%d bindings)\n",
		rule, since, at, verdict, bindings)
}

// Executed implements Tracer.
func (t WriterTracer) Executed(rule string) {
	fmt.Fprintf(t.W, "trace: execute %s\n", rule)
}

// TransactionStart implements Tracer.
func (t WriterTracer) TransactionStart(start clock.Time) {
	if t.Verbose {
		fmt.Fprintf(t.W, "trace: begin at t%d\n", start)
	}
}

// TransactionEnd implements Tracer.
func (t WriterTracer) TransactionEnd(committed bool) {
	if committed {
		fmt.Fprintln(t.W, "trace: commit")
		return
	}
	fmt.Fprintln(t.W, "trace: rollback")
}
