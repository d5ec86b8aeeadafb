package storage

import (
	"fmt"
	"sync"

	"chimera/internal/engine"
)

// MemStore is the in-memory engine.SegmentStore: the durability
// machinery with the disk taken out. It serves three purposes — the
// zero-I/O baseline of the WAL-overhead benchmark, the substrate of the
// kill-and-recover differential suite (Clone captures "what the disk
// held" at any instant; recovering from the clone is a simulated
// crash), and a fault-injection point (FailWrites/FailSync make the
// store start failing, exercising the engine's sticky-error paths).
type MemStore struct {
	mu       sync.Mutex
	wal      []byte
	segs     map[uint64][]byte
	ckpt     []byte
	closed   bool
	writeErr error
	syncErr  error
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{segs: make(map[uint64][]byte)}
}

// Clone deep-copies the store's current durable contents — the
// simulated disk image surviving a crash of the engine above it.
// Injected failures are not inherited.
func (s *MemStore) Clone() *MemStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := NewMemStore()
	c.wal = append([]byte(nil), s.wal...)
	c.ckpt = append([]byte(nil), s.ckpt...)
	if s.ckpt == nil {
		c.ckpt = nil
	}
	for id, p := range s.segs {
		c.segs[id] = append([]byte(nil), p...)
	}
	return c
}

// FailWrites makes every mutating call (AppendWAL, ResetWAL,
// PutSegment, PutCheckpoint, DropSegmentsBelow) return err; nil heals
// the store.
func (s *MemStore) FailWrites(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeErr = err
}

// FailSync makes SyncWAL return err; nil heals the store.
func (s *MemStore) FailSync(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncErr = err
}

func (s *MemStore) AppendWAL(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	s.wal = append(s.wal, p...)
	return nil
}

// SyncWAL is a no-op: in-memory appends are "durable" the moment they
// land (the store models the disk, and the clone is the crash).
func (s *MemStore) SyncWAL() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: memstore closed")
	}
	return s.syncErr
}

func (s *MemStore) WAL() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("storage: memstore closed")
	}
	return append([]byte(nil), s.wal...), nil
}

func (s *MemStore) ResetWAL() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	s.wal = s.wal[:0]
	return nil
}

func (s *MemStore) PutSegment(id uint64, p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	s.segs[id] = append([]byte(nil), p...)
	return nil
}

func (s *MemStore) Segment(id uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("storage: memstore closed")
	}
	p, ok := s.segs[id]
	if !ok {
		return nil, fmt.Errorf("storage: no segment %#x", id)
	}
	return append([]byte(nil), p...), nil
}

func (s *MemStore) DropSegmentsBelow(bound uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	for id := range s.segs {
		if id < bound {
			delete(s.segs, id)
		}
	}
	return nil
}

func (s *MemStore) PutCheckpoint(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	s.ckpt = append([]byte(nil), p...)
	return nil
}

func (s *MemStore) Checkpoint() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("storage: memstore closed")
	}
	if s.ckpt == nil {
		return nil, nil
	}
	return append([]byte(nil), s.ckpt...), nil
}

func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// WALLen reports the log's byte length (test inspection).
func (s *MemStore) WALLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.wal)
}

// TruncateWAL cuts the log to n bytes — the crash-mid-write simulation
// used by the recovery differential (a torn tail must recover to the
// last complete record).
func (s *MemStore) TruncateWAL(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < len(s.wal) {
		s.wal = s.wal[:n]
	}
}

func (s *MemStore) usable() error {
	if s.closed {
		return fmt.Errorf("storage: memstore closed")
	}
	return s.writeErr
}

// compile-time interface check
var _ engine.SegmentStore = (*MemStore)(nil)
