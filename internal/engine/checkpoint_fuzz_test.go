package engine_test

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/event"
	"chimera/internal/storage"
	"chimera/internal/types"
)

// checkpointSeeds builds the fuzz corpus: an idle checkpoint, a
// multi-session checkpoint taken with a line open, a checkpoint taken
// inside a single-session transaction (sealed segments, a tail, marks,
// an undo log and a retention window), and the version-1 checkpoint of
// testdata/golden-v1.
func checkpointSeeds(f *testing.F) [][]byte {
	must := func(err error) {
		if err != nil {
			f.Fatal(err)
		}
	}
	capture := func(sessions int, open func(db *engine.DB) *engine.Txn) []byte {
		store := storage.NewMemStore()
		db, err := engine.Open(multiDurOptions(store, sessions))
		must(err)
		defer db.Close()
		defineDurCatalog(f, db)
		must(db.Run(func(tx *engine.Txn) error {
			_, err := tx.Create("item", map[string]types.Value{"n": types.Int(70), "cap": types.Int(50)})
			return err
		}))
		if open != nil {
			defer open(db).Rollback()
		}
		must(db.Checkpoint())
		ckpt, err := store.Checkpoint()
		must(err)
		return ckpt
	}
	seeds := [][]byte{
		capture(0, nil),
		capture(2, func(db *engine.DB) *engine.Txn {
			tx, err := db.Begin()
			must(err)
			must(tx.Modify(1, "n", types.Int(3)))
			return tx
		}),
		capture(0, func(db *engine.DB) *engine.Txn {
			tx, err := db.Begin()
			must(err)
			must(tx.SetRetention(40))
			for i := 0; i < 5; i++ {
				_, err := tx.Create("item", map[string]types.Value{"n": types.Int(int64(i)), "cap": types.Int(50)})
				must(err)
				must(tx.Modify(1, "n", types.Int(int64(60+i))))
				must(tx.Emit(event.External("tick"), types.NilOID))
				must(tx.EndLine())
			}
			return tx
		}),
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden-v1", "checkpoint.bin"))
	must(err)
	return append(seeds, golden)
}

// reseal rewrites the checksum of every whole frame in data, so the
// fuzzer's mutations reach the decoder behind the frame layer.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	table := crc32.MakeTable(crc32.Castagnoli)
	for p := out; len(p) >= 8; {
		n := int(binary.LittleEndian.Uint32(p))
		if n < 0 || n > len(p)-8 {
			break
		}
		binary.LittleEndian.PutUint32(p[4:8], crc32.Checksum(p[8:8+n], table))
		p = p[8+n:]
	}
	return out
}

// FuzzDecodeCheckpoint: the checkpoint decoder never panics; every input
// either decodes or returns an error. Each input is tried as given and
// with its frames' checksums repaired.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, seed := range checkpointSeeds(f) {
		if err := engine.DecodeCheckpoint(seed); err != nil {
			f.Fatalf("seed checkpoint does not decode: %v", err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		engine.DecodeCheckpoint(data)         //nolint:errcheck // errors are expected; panics are not
		engine.DecodeCheckpoint(reseal(data)) //nolint:errcheck
	})
}
