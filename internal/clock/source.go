package clock

import (
	"sort"
	"sync"
	"time"
)

// Source abstracts wall-clock access — reading the current time and
// creating repeating tickers — so every time-driven loop in the engine
// (the WAL group committer's fsync-interval drain tick, the stream
// session's micro-batch flush tick) runs against an injectable clock.
// Production code uses Wall; tests inject a Manual source and advance it
// explicitly, making interval-driven behavior fully deterministic: a
// test decides exactly when "5ms have passed", independent of scheduler
// jitter or host load.
//
// Source is about wall time only. The logical Clock above (the paper's
// integer timeline stamped on event occurrences) is a separate axis:
// logical ticks order occurrences, a Source paces background work.
type Source interface {
	// Now returns the source's current wall-clock reading.
	Now() time.Time
	// Since returns the duration elapsed since t on this source.
	Since(t time.Time) time.Duration
	// NewTicker returns a ticker delivering on its channel every d.
	// d must be positive.
	NewTicker(d time.Duration) Ticker
}

// Ticker is the Source-neutral slice of time.Ticker: a delivery channel
// and a stop. Like time.Ticker, deliveries may be dropped if the
// receiver lags (the channel holds one pending tick).
type Ticker interface {
	// C returns the delivery channel.
	C() <-chan time.Time
	// Stop ends deliveries. It does not close the channel.
	Stop()
}

// Wall is the real-time Source backed by the time package.
var Wall Source = wallSource{}

type wallSource struct{}

func (wallSource) Now() time.Time                   { return time.Now() }
func (wallSource) Since(t time.Time) time.Duration  { return time.Since(t) }
func (wallSource) NewTicker(d time.Duration) Ticker { return wallTicker{time.NewTicker(d)} }

type wallTicker struct{ t *time.Ticker }

func (w wallTicker) C() <-chan time.Time { return w.t.C }
func (w wallTicker) Stop()               { w.t.Stop() }

// Manual is a test Source whose time only moves when Advance (or Set) is
// called. Tickers created from it fire deterministically: Advance
// delivers every tick whose deadline the move crosses, in deadline
// order, before returning. Manual is safe for concurrent use, but the
// determinism contract is the caller's: a test that wants exact tick
// counts advances from one goroutine.
//
// A Manual ticker's channel holds one pending tick (matching
// time.Ticker): if the consumer has not drained the previous delivery,
// further ticks crossed by the same Advance coalesce into it.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	tickers []*manualTicker
}

// NewManual returns a Manual source starting at start. A zero start is
// fine — only durations between readings matter to the engine.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now returns the manual time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Since returns the manual time elapsed since t.
func (m *Manual) Since(t time.Time) time.Duration {
	return m.Now().Sub(t)
}

// Advance moves the manual time forward by d, delivering every ticker
// tick the move crosses (in deadline order) before returning.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setLocked(m.now.Add(d))
}

func (m *Manual) setLocked(t time.Time) {
	if t.Before(m.now) {
		return
	}
	m.now = t
	m.deliverLocked()
}

// deliverLocked fires every due ticker in deadline order until none is
// due, then returns. Caller holds mu.
func (m *Manual) deliverLocked() {
	for {
		due := m.tickers[:0:0]
		for _, tk := range m.tickers {
			if tk.active && !tk.next.After(m.now) {
				due = append(due, tk)
			}
		}
		if len(due) == 0 {
			return
		}
		sort.Slice(due, func(i, j int) bool { return due[i].next.Before(due[j].next) })
		for _, tk := range due {
			for tk.active && !tk.next.After(m.now) {
				at := tk.next
				tk.next = tk.next.Add(tk.interval)
				select {
				case tk.ch <- at:
				default: // consumer lagging: coalesce (time.Ticker semantics)
				}
			}
		}
	}
}

// NewTicker returns a ticker firing every d of manual time.
func (m *Manual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive Manual ticker interval")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	tk := &manualTicker{
		src:      m,
		interval: d,
		next:     m.now.Add(d),
		ch:       make(chan time.Time, 1),
		active:   true,
	}
	m.tickers = append(m.tickers, tk)
	return tk
}

type manualTicker struct {
	src      *Manual
	interval time.Duration
	next     time.Time
	ch       chan time.Time
	active   bool
}

func (t *manualTicker) C() <-chan time.Time { return t.ch }

func (t *manualTicker) Stop() {
	t.src.mu.Lock()
	defer t.src.mu.Unlock()
	t.active = false
	for i, tk := range t.src.tickers {
		if tk == t {
			t.src.tickers = append(t.src.tickers[:i], t.src.tickers[i+1:]...)
			break
		}
	}
}
