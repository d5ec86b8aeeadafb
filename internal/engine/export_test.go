package engine

import "chimera/internal/types"

// CheckpointOIDs decodes checkpoint bytes and returns the OIDs of the
// objects frame in the order they were written.
func CheckpointOIDs(data []byte) ([]types.OID, error) {
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	oids := make([]types.OID, len(ck.Objects))
	for i, o := range ck.Objects {
		oids[i] = o.OID
	}
	return oids, nil
}
