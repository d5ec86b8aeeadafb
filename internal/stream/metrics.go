package stream

import "chimera/internal/metrics"

// streamMetrics is the stream session's instrument set, following the
// repo-wide pattern: the zero value (all nil instruments) is the
// disabled configuration, and every report is then a nil-check no-op.
// The session resolves the set from the database's registry, so `show
// stream` and DB.Snapshot expose it alongside the engine instruments.
type streamMetrics struct {
	// enqueued / dropped count arrivals at the queue boundary (Drop
	// policy sheds into dropped); events counts occurrences actually
	// ingested into the engine.
	enqueued *metrics.Counter
	dropped  *metrics.Counter
	events   *metrics.Counter
	// batches / batchEvents / sweepLag describe the micro-batching:
	// sweeps carrying arrivals, the batch-size distribution, and how
	// long a batch's first arrival waited for its sweep.
	batches     *metrics.Counter
	batchEvents *metrics.Histogram
	sweepLag    *metrics.Histogram
	// idleSweeps counts clock-driven sweeps that ran without arrivals.
	idleSweeps *metrics.Counter
	// refused counts refused batches; budgetKills the part of them the
	// per-batch budget refused.
	refused     *metrics.Counter
	budgetKills *metrics.Counter
	// queueDepth gauges arrival-queue occupancy; liveEvents and
	// liveSegments gauge the session's retained window (the flat-memory
	// claim of DESIGN.md §15 is about these staying bounded).
	queueDepth   *metrics.Gauge
	liveEvents   *metrics.Gauge
	liveSegments *metrics.Gauge
}

func newStreamMetrics(r *metrics.Registry) streamMetrics {
	if r == nil {
		return streamMetrics{}
	}
	return streamMetrics{
		enqueued: r.Counter("chimera_stream_enqueued_total"),
		dropped:  r.Counter("chimera_stream_dropped_total"),
		events:   r.Counter("chimera_stream_events_total"),
		batches:  r.Counter("chimera_stream_batches_total"),
		batchEvents: r.Histogram("chimera_stream_batch_events",
			1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
		sweepLag: r.Histogram("chimera_stream_sweep_lag_ns",
			1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9),
		idleSweeps:   r.Counter("chimera_stream_idle_sweeps_total"),
		refused:      r.Counter("chimera_stream_refused_total"),
		budgetKills:  r.Counter("chimera_stream_budget_kills_total"),
		queueDepth:   r.Gauge("chimera_stream_queue_depth"),
		liveEvents:   r.Gauge("chimera_stream_live_events"),
		liveSegments: r.Gauge("chimera_stream_live_segments"),
	}
}
