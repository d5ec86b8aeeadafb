package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"

	"chimera"
)

// fingerprint hashes the committed object population: every object of
// every class, rendered and sorted. Two databases that ran the same
// operations in the same order agree on it, OIDs included.
func fingerprint(db *chimera.DB) string {
	var lines []string
	for _, class := range db.Schema().Names() {
		oids, _ := db.Store().Select(class)
		for _, oid := range oids {
			if o, ok := db.Store().Get(oid); ok && o.Class().Name() == class {
				lines = append(lines, o.String())
			}
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
