package engine

import (
	"chimera/internal/metrics"
)

// engineMetrics is the engine layer's instrument set: transaction
// outcomes, block boundaries, occurrences, rule considerations and
// executions, plus the watermark-age gauge (how far the consumption
// low-watermark trails the clock — a stall means some rule has not been
// considered for a long stretch and the Event Base cannot compact).
// The counters behind Stats are the database's only count of their
// facts: the registry's counters of the same names, or counters of the
// database's own when Options.Metrics is nil. Every other instrument is
// nil without a registry, and its report is then a branch-predictable
// nil check and nothing else.
type engineMetrics struct {
	transactions   *metrics.Counter
	commits        *metrics.Counter
	rollbacks      *metrics.Counter
	blocks         *metrics.Counter
	events         *metrics.Counter
	considerations *metrics.Counter
	executions     *metrics.Counter
	blockEvents    *metrics.Histogram
	watermarkAge   *metrics.Gauge
	// Multi-session instruments: how many transaction lines are open and
	// how long committing lines wait for the commit latch (the pipeline's
	// serialization point). Latch waits and conflicts are reported by the
	// object layer (chimera_object_latch_*).
	activeLines *metrics.Gauge
	commitWait  *metrics.Histogram
	// Snapshot-read instruments: read-only transactions begun, the epoch
	// of the latest published snapshot, and how many object copies
	// commit publication has produced (the write-amplification of the
	// lock-free read path).
	readTxns         *metrics.Counter
	snapshotEpoch    *metrics.Gauge
	publishedObjects *metrics.Counter
	// Durability instruments: WAL records and bytes enqueued, committer
	// flushes (store appends) and fsyncs, checkpoints written and sealed
	// segments persisted by them.
	walRecords        *metrics.Counter
	walBytes          *metrics.Counter
	walFlushes        *metrics.Counter
	walFsyncs         *metrics.Counter
	checkpoints       *metrics.Counter
	segmentsPersisted *metrics.Counter
	// Resource-governance instruments: transactions killed by the gas or
	// wall-clock budget, Event Base appends refused by the capacity
	// bounds, and rule cascades stopped by MaxRuleExecutions.
	gasKills       *metrics.Counter
	deadlineKills  *metrics.Counter
	eventLimitHits *metrics.Counter
	ruleLimitHits  *metrics.Counter
	// conflicts counts line operations that failed with ErrConflict
	// (Stats.Conflicts). It is never registered: the object layer's
	// chimera_object_latch_conflicts_total also counts a Txn.Get that
	// meets a conflicting latch, which Get reads as a missing object.
	conflicts *metrics.Counter
}

func newEngineMetrics(r *metrics.Registry) engineMetrics {
	// counter resolves a counter behind a Stats field.
	counter := func(name string) *metrics.Counter {
		if r == nil {
			return new(metrics.Counter)
		}
		return r.Counter(name)
	}
	return engineMetrics{
		transactions:   counter("chimera_engine_transactions_total"),
		commits:        r.Counter("chimera_engine_commits_total"),
		rollbacks:      r.Counter("chimera_engine_rollbacks_total"),
		blocks:         counter("chimera_engine_blocks_total"),
		events:         counter("chimera_engine_events_total"),
		considerations: counter("chimera_engine_considerations_total"),
		executions:     counter("chimera_engine_executions_total"),
		blockEvents: r.Histogram("chimera_engine_block_events",
			0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024),
		watermarkAge: r.Gauge("chimera_engine_watermark_age"),
		activeLines:  r.Gauge("chimera_engine_active_lines"),
		commitWait: r.Histogram("chimera_engine_commit_wait_ns",
			1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9),
		readTxns:          counter("chimera_engine_read_txns_total"),
		snapshotEpoch:     r.Gauge("chimera_engine_snapshot_epoch"),
		publishedObjects:  r.Counter("chimera_engine_published_objects_total"),
		walRecords:        r.Counter("chimera_wal_records_total"),
		walBytes:          r.Counter("chimera_wal_bytes_total"),
		walFlushes:        r.Counter("chimera_wal_flushes_total"),
		walFsyncs:         r.Counter("chimera_wal_fsyncs_total"),
		checkpoints:       r.Counter("chimera_ckpt_total"),
		segmentsPersisted: r.Counter("chimera_ckpt_segments_persisted_total"),
		gasKills:          counter("chimera_engine_gas_kills_total"),
		deadlineKills:     counter("chimera_engine_deadline_kills_total"),
		eventLimitHits:    counter("chimera_engine_event_limit_hits_total"),
		ruleLimitHits:     counter("chimera_engine_rule_limit_hits_total"),
		conflicts:         new(metrics.Counter),
	}
}

// Metrics returns the registry the database reports into, or nil when
// metrics are disabled.
func (db *DB) Metrics() *metrics.Registry { return db.opts.Metrics }

// Snapshot copies every metric the database and its layers (Event Base,
// Trigger Support) have reported. With metrics
// disabled it returns the zero (empty) snapshot.
func (db *DB) Snapshot() metrics.Snapshot { return db.opts.Metrics.Snapshot() }
