// Version 1 of the on-disk format, read-only: WAL segments without a
// header, whose frames (the same [length][CRC32][payload] as version 2)
// carry JSON payloads in Record's JSON shape, and snap-<seq>.json images
// in Snapshot's. Nothing writes version 1 any more; a directory written
// by it recovers, takes v2 appends in a new segment, and loses its v1
// files to the first v2 snapshot's compaction.
package durable

import "encoding/json"

// snapSuffixV1 names version 1 snapshot images.
const snapSuffixV1 = ".json"

// decodeRecordV1 decodes a version 1 WAL payload.
func decodeRecordV1(payload []byte) (Record, error) {
	var rec Record
	err := json.Unmarshal(payload, &rec)
	return rec, err
}

// decodeSnapshotV1 decodes a version 1 (JSON) snapshot image.
func decodeSnapshotV1(data []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
