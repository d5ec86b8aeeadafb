package main

import (
	"sync"
	"time"

	"chimera"
)

// meteredStore wraps a chimera.SegmentStore and observes the storage layer
// from outside: bytes and calls of every WAL append, the number of syncs,
// and the WAL length covered by the last completed sync — the prefix of
// wal.log a crash is guaranteed to leave behind.
type meteredStore struct {
	chimera.SegmentStore
	// tr, when set, also receives every append and sync as a span.
	tr *spanTracer

	mu        sync.Mutex
	walLen    int64 // bytes appended since the last reset
	syncedLen int64 // walLen at the start of the last completed SyncWAL
	appends   int64
	appendB   int64
	syncs     int64
	segPuts   int64
	walHead   []byte // the first walHeadMax bytes appended: recorded input of the wire kernel
}

const walHeadMax = 256 << 10

func newMeteredStore(s chimera.SegmentStore, tr *spanTracer) *meteredStore {
	return &meteredStore{SegmentStore: s, tr: tr}
}

func (m *meteredStore) AppendWAL(p []byte) error {
	t0 := time.Now()
	err := m.SegmentStore.AppendWAL(p)
	if m.tr != nil {
		m.tr.storeSpan(spanAppend, t0, time.Since(t0))
	}
	m.mu.Lock()
	if err == nil {
		m.walLen += int64(len(p))
		m.appendB += int64(len(p))
		if room := walHeadMax - len(m.walHead); room > 0 {
			m.walHead = append(m.walHead, p[:min(room, len(p))]...)
		}
	}
	m.appends++
	m.mu.Unlock()
	return err
}

func (m *meteredStore) SyncWAL() error {
	m.mu.Lock()
	covered := m.walLen
	m.mu.Unlock()
	t0 := time.Now()
	err := m.SegmentStore.SyncWAL()
	if m.tr != nil {
		m.tr.storeSpan(spanSync, t0, time.Since(t0))
	}
	m.mu.Lock()
	if err == nil && covered > m.syncedLen {
		m.syncedLen = covered
	}
	m.syncs++
	m.mu.Unlock()
	return err
}

func (m *meteredStore) ResetWAL() error {
	err := m.SegmentStore.ResetWAL()
	if err == nil {
		m.mu.Lock()
		m.walLen, m.syncedLen = 0, 0
		m.mu.Unlock()
	}
	return err
}

func (m *meteredStore) PutSegment(id uint64, p []byte) error {
	m.mu.Lock()
	m.segPuts++
	m.mu.Unlock()
	return m.SegmentStore.PutSegment(id, p)
}

// storeCounts is a point-in-time copy of the counters; phases subtract two.
type storeCounts struct {
	appends, appendB, syncs, segPuts int64
}

func (m *meteredStore) counts() storeCounts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return storeCounts{m.appends, m.appendB, m.syncs, m.segPuts}
}

func (a storeCounts) sub(b storeCounts) storeCounts {
	return storeCounts{a.appends - b.appends, a.appendB - b.appendB, a.syncs - b.syncs, a.segPuts - b.segPuts}
}

func (m *meteredStore) head() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.walHead
}

func (m *meteredStore) synced() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncedLen
}
