// Snapshot files: a full-state image of the engine — every
// subscription's portable snapshot (the migration encoding: dedup
// rings, EWMA rate, breaker state, parked pushes) plus the retained
// dedup windows of removed applets — stamped with the WAL position it
// covers, written as snap-<seq>.bin in the version 3 layout of the
// package comment (header, body, CRC32 of both).
//
// Consistency does not require stopping the engine. The snapshot
// procedure reads the WAL's head sequence S first, then exports
// (Engine.ExportSubscriptions): the journal's ordering contract
// guarantees every record with seq ≤ S had committed before the export
// observed it, so recovery loads the snapshot and replays only records
// with seq > S — idempotently, because a record in the overlap window
// (appended after the S read but before its subscription was captured)
// may already be reflected in the image.
//
// The newest image that decodes is loaded; a damaged one falls back to
// the previous generation, and openWAL's gap check then refuses the
// fallback unless the log still holds every record after it. An image
// of an unknown version fails Open instead.
package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
)

// Snapshot is the on-disk full-state image. The JSON tags are the
// version 1 image.
type Snapshot struct {
	// WALSeq is the journal position this image covers: recovery replays
	// only records after it.
	WALSeq uint64 `json:"wal_seq"`
	// Coalesce records the engine's subscription-key mode; recovery
	// refuses a snapshot taken under the other mode (the keys would not
	// match the recovering engine's).
	Coalesce bool                           `json:"coalesce"`
	Subs     []*engine.SubscriptionSnapshot `json:"subs"`
	Retired  []engine.RetiredDedup          `json:"retired,omitempty"`
}

const (
	snapPrefix = "snap-"
	snapSuffix = ".bin"
	// snapKeep is how many snapshot generations survive pruning: the
	// newest is the working image, the previous one the fallback should
	// the newest turn out unreadable.
	snapKeep = 2
)

var snapMagic = []byte("ISNP")

// writeSnapshot persists snap atomically (tmp + rename) as
// snap-<walseq>.bin, then prunes older generations beyond snapKeep and
// every version 1 image.
func writeSnapshot(dir string, snap *Snapshot) error {
	e := encoder{b: fileHeader(snapMagic)}
	e.snapshotBody(snap)
	data := binary.LittleEndian.AppendUint32(e.b, crc32.ChecksumIEEE(e.b))
	final := filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, snap.WALSeq, snapSuffix))
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("durable: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: commit snapshot: %w", err)
	}
	kept := 0
	names := snapshotFiles(dir)
	for i := len(names) - 1; i >= 0; i-- {
		if strings.HasSuffix(names[i], snapSuffix) && kept < snapKeep {
			kept++
			continue
		}
		os.Remove(filepath.Join(dir, names[i]))
	}
	return nil
}

// decodeSnapshot decodes one image file of either version. An unknown
// version is a *formatError; anything else wrong is plain corruption.
func decodeSnapshot(path string, data []byte) (*Snapshot, error) {
	if strings.HasSuffix(path, snapSuffixV1) {
		return decodeSnapshotV1(data)
	}
	if len(data) < fileHdr+4 || !bytes.HasPrefix(data, snapMagic) {
		return nil, errCorrupt
	}
	v := binary.LittleEndian.Uint32(data[len(snapMagic):])
	if v != formatVersion && v != 2 {
		return nil, &formatError{path, v}
	}
	n := len(data) - 4
	if crc32.ChecksumIEEE(data[:n]) != binary.LittleEndian.Uint32(data[n:]) {
		return nil, errCorrupt
	}
	return decodeSnapshotBody(v, data[fileHdr:n])
}

// loadSnapshot returns the newest readable snapshot in dir and its file
// name, or nil when none exists. An undecodable newest image falls back
// to the previous generation; an image of an unknown version is an
// error.
func loadSnapshot(dir string) (*Snapshot, string, error) {
	names := snapshotFiles(dir)
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		snap, err := decodeSnapshot(path, data)
		if fe := (*formatError)(nil); errors.As(err, &fe) {
			return nil, "", err
		}
		if err != nil {
			continue
		}
		return snap, names[i], nil
	}
	return nil, "", nil
}

// snapshotFiles lists dir's snapshot images of both versions, oldest
// first: the zero-padded fixed-width names make lexical order WAL order.
func snapshotFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, en := range entries {
		name := en.Name()
		digits, ok := strings.CutPrefix(name, snapPrefix)
		if !ok {
			continue
		}
		if d, ok := strings.CutSuffix(digits, snapSuffix); ok {
			digits = d
		} else if digits, ok = strings.CutSuffix(digits, snapSuffixV1); !ok {
			continue
		}
		if _, err := strconv.ParseUint(digits, 10, 64); err != nil {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
