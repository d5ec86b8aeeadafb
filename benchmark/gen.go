package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"chimera"
)

// This file is the load generator: seeded inputs, the open-loop pacer and
// the meters read at phase boundaries. The engine sees only what the
// generators hand it — never the seed, never the workload's name.

// poolSize is the length of a pre-generated event pool. A phase that needs
// more events than that walks the pool again; 8192 (the settle cadence)
// divides it, so wrapping keeps the signal schedule exact.
const poolSize = 1 << 20

// streamInput is a pre-generated event sequence: event i has type
// types[typ[i]] and affects object key[i] (an index into the workload's
// OID table), or no object when key[i] < 0.
type streamInput struct {
	types []chimera.EventType
	typ   []uint8
	key   []int32
}

func (in *streamInput) at(i int64, oids []chimera.OID) (chimera.EventType, chimera.OID) {
	j := i % int64(len(in.typ))
	var oid chimera.OID
	if k := in.key[j]; k >= 0 {
		oid = oids[k]
	}
	return in.types[in.typ[j]], oid
}

// Event kinds of the fraud input, as indices into its type table.
const (
	evSwipe = iota
	evLimit
	evCreate
	evDeclined
	evChargeback
	evHeartbeat
	evSettle
)

// settleEvery is the cadence of the settle signal that empties the alert
// extension.
const settleEvery = 8192

// overLimitEvery fixes which key ranks are seeded over their limit: one in
// 64, by rank, so that every seed hands the overlimit rule the same share
// of traffic however its keys are drawn.
const overLimitEvery = 64

func overLimitRank(rank int) bool { return rank%overLimitEvery == 7 }

// keyDraw returns a function drawing key ranks in [0, n): uniform, or
// Zipf with exponent 1.1 (rank 0 hottest).
func keyDraw(r *rand.Rand, n int, zipf bool) func() int {
	if !zipf {
		return func() int { return r.Intn(n) }
	}
	z := rand.NewZipf(r, 1.1, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// fraudInput generates the card-switch traffic: 99.4% swipes, 0.2% declined
// signals, 0.2% limit changes, 0.1% card creations, 0.05% each chargeback
// and heartbeat, and a settle signal every settleEvery events. With that
// mix a batch of 256 always triggers overlimit and, less than every second
// batch each, the rules listening to the rarer events. perm maps a key rank
// to a card index, so the seed decides which cards are hot.
func fraudInput(seed int64, cards int, zipf bool) (in *streamInput, perm []int) {
	r := rand.New(rand.NewSource(seed))
	perm = r.Perm(cards)
	draw := keyDraw(r, cards, zipf)
	in = &streamInput{
		types: []chimera.EventType{
			evSwipe:      chimera.ModifyOf("card", "spent"),
			evLimit:      chimera.ModifyOf("card", "limit"),
			evCreate:     chimera.CreateOf("card"),
			evDeclined:   chimera.ExternalOf("declined"),
			evChargeback: chimera.ExternalOf("chargeback"),
			evHeartbeat:  chimera.ExternalOf("heartbeat"),
			evSettle:     chimera.ExternalOf("settle"),
		},
		typ: make([]uint8, poolSize),
		key: make([]int32, poolSize),
	}
	for i := range in.typ {
		if i%settleEvery == settleEvery-1 {
			in.typ[i], in.key[i] = evSettle, -1
			continue
		}
		switch x := r.Intn(2000); {
		case x < 4:
			in.typ[i], in.key[i] = evDeclined, -1
		case x < 8:
			in.typ[i], in.key[i] = evLimit, int32(perm[draw()])
		case x < 9:
			in.typ[i], in.key[i] = evChargeback, -1
		case x < 10:
			in.typ[i], in.key[i] = evHeartbeat, -1
		case x < 12:
			in.typ[i], in.key[i] = evCreate, int32(perm[draw()])
		default:
			in.typ[i], in.key[i] = evSwipe, int32(perm[draw()])
		}
	}
	return in, perm
}

// rulesInput generates stream_rules traffic over the 32-class vocabulary:
// class and object uniform, 5% creations, 60% modify(v), 35% modify(w).
func rulesInput(seed int64) *streamInput {
	r := rand.New(rand.NewSource(seed))
	in := &streamInput{
		types: make([]chimera.EventType, ruleClasses*3),
		typ:   make([]uint8, poolSize),
		key:   make([]int32, poolSize),
	}
	for c := 0; c < ruleClasses; c++ {
		in.types[c*3] = chimera.CreateOf(ruleClass(c))
		in.types[c*3+1] = chimera.ModifyOf(ruleClass(c), "v")
		in.types[c*3+2] = chimera.ModifyOf(ruleClass(c), "w")
	}
	for i := range in.typ {
		c, p := r.Intn(ruleClasses), 2
		if x := r.Intn(100); x < 5 {
			p = 0
		} else if x < 65 {
			p = 1
		}
		in.typ[i] = uint8(c*3 + p)
		in.key[i] = int32(c*rulesPerObject + r.Intn(rulesPerObject))
	}
	return in
}

// pacer is an open-loop schedule: op i is due at start + i/rate whatever
// the system under test does, and latency is taken from that due time.
type pacer struct {
	start time.Time
	perOp float64 // nanoseconds between due times
	how   pacing
}

// pacing is how a pacer passes the time to the next due instant. Which way
// disturbs a workload least depends on what else needs the processors (two
// of them on the sandbox the benchmark was tuned on).
type pacing int

const (
	// spinYield spins, yielding the processor at every turn. For the
	// stream workloads, where the sweep goroutine and the collector keep
	// both processors busy: a timer sleep then wakes milliseconds late (the
	// sleeper waits for the scheduler's next preemption), and that delay
	// would be charged to the engine as latency.
	spinYield pacing = iota
	// spinBusy spins without yielding. For read_mostly's writer, beside a
	// reader that yields: when both yield at every turn they settle, run by
	// run, on two processors or on one, and the median latency is 25 or
	// 40 µs accordingly.
	spinBusy
	// sleepSpin sleeps to 100 µs before the due instant, then spins. For
	// oltp_durable's clients, whose processors are mostly idle: two
	// spinning clients keep the engine's group committer off the processor
	// it needs between an fsync and the next, and the median latency moves
	// by half from window to window.
	sleepSpin
)

func newPacer(rate float64, how pacing) *pacer {
	return &pacer{start: time.Now(), perOp: 1e9 / rate, how: how}
}

func (p *pacer) due(i int64) time.Duration { return time.Duration(float64(i) * p.perOp) }

// wait returns when op i is due. If the caller arrived before the due time
// it returns how late the generator noticed (its own error, to be kept
// small); if the op was already overdue — the system under test kept the
// caller busy — it returns -1 and the delay counts as latency, not as
// lateness.
func (p *pacer) wait(i int64) time.Duration {
	due := p.due(i)
	if time.Since(p.start) >= due {
		return -1
	}
	for {
		switch p.how {
		case spinYield:
			runtime.Gosched()
		case sleepSpin:
			if d := due - time.Since(p.start); d > 150*time.Microsecond {
				time.Sleep(d - 100*time.Microsecond)
			}
		}
		if d := time.Since(p.start) - due; d >= 0 {
			return d
		}
	}
}

// quantile returns the q-quantile of v (sorted in place): the smallest
// value with at least a share q of the samples at or below it.
func quantile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d int64) float64 { return float64(d) / 1e6 }
func us(d int64) float64 { return float64(d) / 1e3 }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter reads wall clock, process CPU and allocator counters at the start
// of a phase; usage is their delta at its end.
type meter struct {
	t0      time.Time
	cpu0    time.Duration
	mallocs uint64
	bytes   uint64
}

type usage struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func startMeter() meter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return meter{t0: time.Now(), cpu0: cpuTime(), mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

func (m meter) stop() usage {
	wall, cpu := time.Since(m.t0), cpuTime()-m.cpu0
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return usage{wall: wall, cpu: cpu, mallocs: s.Mallocs - m.mallocs, bytes: s.TotalAlloc - m.bytes}
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return float64(s.HeapAlloc) / (1 << 20)
}
