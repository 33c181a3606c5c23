// Version 1 of the on-disk format, read-only: WAL segments without a
// header, whose frames (the same [length][CRC32][payload] as later
// versions) carry JSON payloads in Record's JSON shape, and
// snap-<seq>.json images in Snapshot's — except that a dedup window is
// a list of event ID strings, which the reader hashes as the engine
// remembers them. Nothing writes version 1 any more; a directory written
// by it recovers, takes version 3 appends in a new segment, and loses
// its v1 files to the first version 3 snapshot's compaction.
package durable

import (
	"encoding/json"

	"repro/internal/engine"
)

// snapSuffixV1 names version 1 snapshot images.
const snapSuffixV1 = ".json"

// recordV1 is a version 1 payload; its Attach shadows Record's.
type recordV1 struct {
	Record
	Attach *subscriptionV1 `json:"attach,omitempty"`
}

// snapshotV1 is a version 1 image; its Subs and Retired shadow
// Snapshot's.
type snapshotV1 struct {
	Snapshot
	Subs    []*subscriptionV1 `json:"subs"`
	Retired []retiredV1       `json:"retired,omitempty"`
}

type subscriptionV1 struct {
	engine.SubscriptionSnapshot
	Members []memberV1
}

type memberV1 struct {
	Applet     engine.Applet
	SeenEvents []string
}

type retiredV1 struct {
	AppletID   string   `json:"applet_id"`
	SeenEvents []string `json:"seen_events"`
}

// upgrade is the subscription with its members' windows hashed.
func (s *subscriptionV1) upgrade() *engine.SubscriptionSnapshot {
	ss := s.SubscriptionSnapshot
	ss.Members = make([]engine.MemberSnapshot, len(s.Members))
	for i, m := range s.Members {
		ss.Members[i] = engine.MemberSnapshot{Applet: m.Applet, SeenEvents: hashIDs(m.SeenEvents)}
	}
	return &ss
}

// decodeRecordV1 decodes a version 1 WAL payload.
func decodeRecordV1(payload []byte) (Record, error) {
	var rec recordV1
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, err
	}
	if rec.Attach != nil {
		rec.Record.Attach = rec.Attach.upgrade()
	}
	return rec.Record, nil
}

// decodeSnapshotV1 decodes a version 1 (JSON) snapshot image.
func decodeSnapshotV1(data []byte) (*Snapshot, error) {
	var snap snapshotV1
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	s := &snap.Snapshot
	for _, ss := range snap.Subs {
		if ss == nil {
			s.Subs = append(s.Subs, nil)
			continue
		}
		s.Subs = append(s.Subs, ss.upgrade())
	}
	for _, r := range snap.Retired {
		s.Retired = append(s.Retired, engine.RetiredDedup{AppletID: r.AppletID, SeenEvents: hashIDs(r.SeenEvents)})
	}
	return s, nil
}
