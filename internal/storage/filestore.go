package storage

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"chimera/internal/engine"
)

// FileStore is the on-disk engine.SegmentStore: one directory holding
//
//	wal.log          — the write-ahead log, appended and fsynced in place
//	checkpoint.bin   — the checkpoint, replaced atomically (tmp + rename)
//	seg-<id>.bin     — one file per persisted segment, written atomically
//
// Atomic replacement means a crash at any instant leaves either the old
// or the new checkpoint readable, never a torn one; the WAL needs no
// such care because its CRC framing lets recovery cut a torn tail at
// the last complete record.
type FileStore struct {
	dir string

	mu      sync.Mutex
	wal     *os.File
	walSink io.Writer // wal by default; tests inject failing writers
	syncErr error     // injected fsync failure
	closed  bool
}

const (
	walName  = "wal.log"
	ckptName = "checkpoint.bin"
)

// NewFileStore opens (creating if needed) a store directory.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return &FileStore{dir: dir, wal: wal}, nil
}

// SetWALSink replaces the WAL write target — a fault-injection hook for
// the error-path tests (pass a writer that fails after N bytes). nil
// restores the log file.
func (s *FileStore) SetWALSink(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.walSink = w
}

// SetSyncErr makes SyncWAL fail with err (nil heals it) — the
// fsync-failure injection hook.
func (s *FileStore) SetSyncErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncErr = err
}

func (s *FileStore) AppendWAL(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: filestore closed")
	}
	w := s.walSink
	if w == nil {
		w = s.wal
	}
	n, err := w.Write(p)
	if err == nil && n != len(p) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	return nil
}

func (s *FileStore) SyncWAL() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: filestore closed")
	}
	if s.syncErr != nil {
		return s.syncErr
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("storage: wal sync: %w", err)
	}
	return nil
}

func (s *FileStore) WAL() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(s.dir, walName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("storage: %w", err)
	}
	return data, nil
}

func (s *FileStore) ResetWAL() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: filestore closed")
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("storage: wal reset: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("storage: wal reset: %w", err)
	}
	return nil
}

func (s *FileStore) segPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%016x.bin", id))
}

func (s *FileStore) PutSegment(id uint64, p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: filestore closed")
	}
	return s.atomicWrite(s.segPath(id), p)
}

func (s *FileStore) Segment(id uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(s.segPath(id))
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return data, nil
}

func (s *FileStore) DropSegmentsBelow(bound uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	for _, e := range entries {
		var id uint64
		if _, err := fmt.Sscanf(e.Name(), "seg-%016x.bin", &id); err != nil {
			continue
		}
		if id < bound {
			if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil {
				return fmt.Errorf("storage: %w", err)
			}
		}
	}
	return nil
}

func (s *FileStore) PutCheckpoint(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: filestore closed")
	}
	return s.atomicWrite(filepath.Join(s.dir, ckptName), p)
}

func (s *FileStore) Checkpoint() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(s.dir, ckptName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("storage: %w", err)
	}
	return data, nil
}

func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.wal.Close(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

// atomicWrite writes p to path via tmp + fsync + rename + directory
// fsync, so the file appears complete or not at all.
func (s *FileStore) atomicWrite(path string, p []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if _, err := f.Write(p); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: %w", err)
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync() //nolint:errcheck // advisory; rename already ordered the data
		d.Close()
	}
	return nil
}

var _ engine.SegmentStore = (*FileStore)(nil)
