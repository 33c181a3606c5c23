// Package durable is the engine's persistence tier: an append-only
// write-ahead log of lifecycle and checkpoint records plus periodic
// full-state snapshots, giving iftttd (and the cluster's per-node
// engines) crash-restart recovery of applets, dedup windows, EWMA
// cadence, breaker state, and parked push deliveries.
//
// The WAL is the source of truth between snapshots. Appends go to disk
// with one write(2) per record — after a process kill (SIGKILL, OOM,
// panic) every acknowledged record is in the OS page cache and survives;
// surviving a whole-machine crash additionally needs Options.Fsync,
// which trades an fsync per append for it. A write or fsync that fails
// is rolled back by truncating the segment to its last good frame; if
// that fails too the log refuses further appends rather than journal
// past bytes the next Open would cut away. A torn final record (the
// crash interrupted the write itself) is detected by the length/CRC
// frame on open and truncated away; everything before it replays.
//
// # Format, version 3
//
// Every file begins with an 8-byte header, a 4-byte magic and the format
// version as a little-endian uint32: "IWAL" for a WAL segment, "ISNP"
// for a snapshot image. A segment then holds frames
//
//	[4-byte LE payload length][4-byte LE CRC32-IEEE of payload][payload]
//
// and each payload is uvarint(seq), one op byte, then the op's fields,
// so the CRC covers seq and op too. Sequence numbers increase by one per
// record. Strings are uvarint(len) + bytes, lists uvarint(count) +
// elements, maps uvarint(count) + key-sorted (key, value) pairs — files
// are byte-deterministic — times a 0 byte for the zero time or a 1 byte,
// varint(Unix seconds), uvarint(nanoseconds), and a dedup window
// uvarint(count) + that many 8-byte LE words, the remembered event IDs'
// hashes (engine.IDHash) oldest first:
//
//	1 install     applet = ID, Name, UserID, trigger ref, action ref
//	              ref    = Service, BaseURL, Slug, Fields map, ServiceKey, UserToken
//	2 remove      applet ID
//	3 checkpoint  key, list of (applet ID, list of event IDs)
//	4 attach      subscription = key, list of (applet, window),
//	              rate (8-byte LE float64 bits), rate time, varint fail
//	              streak, breaker byte, varint poll count, list of parked
//	              pushes (time, list of events: ID, varint timestamp,
//	              varint timestamp_ns, ingredients map)
//	5 detach      key, list of applet IDs
//
// A snapshot image is its header, uvarint(WAL seq), the coalesce byte,
// a list of subscriptions as in attach, a list of retired windows
// (applet ID, window), then a 4-byte LE CRC32-IEEE of everything before
// it. Applet Conditions are never written (an interface with no
// portable encoding).
//
// Version 2 is version 3 but for windows, which it wrote as lists of
// event ID strings. Version 1 — no header, JSON payloads, snap-*.json
// images — is v1.go. Both are still read, their windows hashed as they
// are, so an existing directory upgrades in place: Open starts a
// version 3 segment if the active one is older, and the version 3
// snapshots compact the old files away. Version 1 numbered records
// from 1 again after a clean restart, so its last segment may be named
// past its records; the new segment is named past it in turn, and a
// segment's name is therefore at least, not always equal to, its first
// seq. A file whose magic matches but whose version is unknown fails
// Open with the file's name and version, leaving the directory
// untouched; only a torn tail is ever truncated.
//
// Open also refuses a gap: the log must hold every record after the
// snapshot it loads (the first segment starts at or before snapshot
// seq + 1, and so does the first replayed record). A fallback to an
// older snapshot generation after compaction fails here instead of
// recovering a short state.
//
// Segments rotate when they outgrow a size bound and at every snapshot;
// segments wholly covered by the newest snapshot are deleted, so disk
// usage is bounded by churn-per-snapshot-interval, not lifetime.
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
	"sync"

	"repro/internal/engine"
)

// Record op codes.
const (
	// OpInstall / OpRemove mirror Engine.Install / Engine.Remove.
	OpInstall = "install"
	OpRemove  = "remove"
	// OpCheckpoint carries the dedup delta of one execution, journaled
	// before its first action dispatched.
	OpCheckpoint = "checkpoint"
	// OpAttach / OpDetach mirror subscription migration: a whole
	// subscription arriving at or leaving this engine.
	OpAttach = "attach"
	OpDetach = "detach"
)

// Record is one WAL entry. Exactly one of the payload fields is set,
// selected by Op. Applet definitions lose their Conditions across the
// journal round-trip (engine.Condition is an interface with no portable
// encoding); everything else survives verbatim. The JSON tags are the
// version 1 payload, which cmd/waldump also prints.
type Record struct {
	Seq uint64 `json:"seq"`
	Op  string `json:"op"`

	Applet     *engine.Applet               `json:"applet,omitempty"`     // OpInstall
	ID         string                       `json:"id,omitempty"`         // OpRemove
	Checkpoint *engine.Checkpoint           `json:"checkpoint,omitempty"` // OpCheckpoint
	Attach     *engine.SubscriptionSnapshot `json:"attach,omitempty"`     // OpAttach
	Key        string                       `json:"key,omitempty"`        // OpDetach
	AppletIDs  []string                     `json:"applet_ids,omitempty"` // OpDetach
}

// DefaultSegmentBytes is the segment-size rotation bound.
const DefaultSegmentBytes = 64 << 20

const (
	walPrefix = "wal-"
	walSuffix = ".log"
	frameHdr  = 8 // length + CRC
	fileHdr   = 8 // magic + version
)

var walMagic = []byte("IWAL")

// fileHeader is the first 8 bytes of a file of formatVersion with the
// given magic.
func fileHeader(magic []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), magic...), formatVersion)
}

// formatError reports a file whose magic matches but whose version this
// build cannot read.
type formatError struct {
	path    string
	version uint32
}

func (e *formatError) Error() string {
	return fmt.Sprintf("durable: %s has format version %d; this build reads versions 1 to %d", e.path, e.version, formatVersion)
}

// walSegment is one on-disk log file; first is the number in its file
// name. That is the sequence number of its first record, or larger when
// rotateLocked had to name it past an older file — never smaller, which
// is all compaction relies on.
type walSegment struct {
	path  string
	first uint64
}

// segmentFile is what the WAL needs of its active segment; *os.File in
// production, a short-writing wrapper in tests.
type segmentFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// wal is the append half of the store. All methods are safe for
// concurrent use.
type wal struct {
	mu       sync.Mutex
	dir      string
	fsync    bool
	segBytes int64

	f      segmentFile // active segment, always of formatVersion
	fBytes int64       // active segment size, header included
	seq    uint64      // last assigned sequence number
	segs   []walSegment
	// broken is set when a failed append could not be rolled back: the
	// segment ends in bytes no reader accepts, so nothing may follow.
	broken error
	// enc renders each record into its reused buffer: frame header
	// space, then the payload.
	enc encoder

	// Monotonic counters, read via Store metrics.
	records int64
	bytes   int64
}

// listSegments returns dir's WAL segments, oldest first.
func listSegments(dir string) ([]walSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: wal dir: %w", err)
	}
	var segs []walSegment
	for _, en := range entries {
		name := en.Name()
		if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix), 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, walSegment{path: filepath.Join(dir, name), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// segmentScan is what reading one segment found.
type segmentScan struct {
	recs    []Record
	good    int64 // offset of the first bad frame; the file size when clean
	size    int64
	current bool // the file has a complete header of formatVersion (appendable)
}

// readSegment decodes one segment's frames without modifying it.
// prevSeq is the last sequence number of the previous segment; a
// non-increasing sequence is treated as corruption. A file whose magic
// matches but whose version is neither 2 nor 3 is an error; a file
// without the magic is version 1.
func readSegment(path string, prevSeq uint64) (segmentScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segmentScan{}, fmt.Errorf("durable: read segment: %w", err)
	}
	return scanSegment(path, data, prevSeq)
}

func scanSegment(path string, data []byte, prevSeq uint64) (segmentScan, error) {
	sc := segmentScan{size: int64(len(data))}
	switch {
	case len(data) >= fileHdr && bytes.HasPrefix(data, walMagic):
		switch v := binary.LittleEndian.Uint32(data[len(walMagic):]); v {
		case formatVersion:
			sc.current = true
			sc.recs, sc.good = readFrames(data, fileHdr, prevSeq, decodeRecord)
		case 2:
			sc.recs, sc.good = readFrames(data, fileHdr, prevSeq, decodeRecordV2)
		default:
			return sc, &formatError{path, v}
		}
	case bytes.HasPrefix(fileHeader(walMagic), data):
		// Empty, or torn inside the header: nothing was ever appended.
	default:
		sc.recs, sc.good = readFrames(data, 0, prevSeq, decodeRecordV1)
	}
	return sc, nil
}

// readFrames decodes data's frames from off, stopping at the first one
// that is torn, fails its CRC, does not decode or does not advance the
// sequence. It returns the records and the offset where it stopped.
func readFrames(data []byte, off int64, prevSeq uint64, decode func([]byte) (Record, error)) ([]Record, int64) {
	var recs []Record
	for int64(len(data))-off >= frameHdr {
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		end := off + frameHdr + int64(n)
		if n == 0 || end > int64(len(data)) {
			break
		}
		payload := data[off+frameHdr : end]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		rec, err := decode(payload)
		if err != nil || rec.Seq <= prevSeq {
			break
		}
		prevSeq = rec.Seq
		recs = append(recs, rec)
		off = end
	}
	return recs, off
}

// logScan is a read-only pass over a directory's WAL.
type logScan struct {
	segs  []walSegment
	scans []segmentScan
	// cut is the index of the first segment with a bad frame, len(segs)
	// when every frame validated: records stop there.
	cut int
}

// scanLog reads every segment in dir, oldest first, changing nothing.
func scanLog(dir string) (logScan, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return logScan{}, err
	}
	l := logScan{segs: segs, cut: len(segs)}
	prev := uint64(0)
	for i, seg := range segs {
		sc, err := readSegment(seg.path, prev)
		if err != nil {
			return logScan{}, err
		}
		l.scans = append(l.scans, sc)
		if n := len(sc.recs); n > 0 {
			prev = sc.recs[n-1].Seq
		}
		if sc.good < sc.size && l.cut == len(segs) {
			l.cut = i
		}
	}
	return l, nil
}

// records returns the surviving records, oldest first.
func (l *logScan) records() []Record {
	var recs []Record
	for i := 0; i < len(l.scans) && i <= l.cut; i++ {
		recs = append(recs, l.scans[i].recs...)
	}
	return recs
}

// checkGap fails when records after snapSeq are missing from the log:
// the oldest segment must start at or before snapSeq+1, and so must the
// first record after snapSeq. A segment starts at its first record, or
// at its name when it has none.
func (l *logScan) checkGap(dir string, snapSeq uint64, recs []Record) error {
	if len(l.segs) > 0 {
		start := l.segs[0].first
		if r := l.scans[0].recs; len(r) > 0 {
			start = r[0].Seq
		}
		if start > snapSeq+1 {
			return fmt.Errorf("durable: %s: the snapshot covers the log up to seq %d but the oldest segment starts at seq %d; records %d to %d are lost",
				dir, snapSeq, start, snapSeq+1, start-1)
		}
	}
	for _, rec := range recs {
		if rec.Seq > snapSeq {
			if rec.Seq != snapSeq+1 {
				return fmt.Errorf("durable: %s: the snapshot covers the log up to seq %d but the next record is seq %d; records %d to %d are lost",
					dir, snapSeq, rec.Seq, snapSeq+1, rec.Seq-1)
			}
			break
		}
	}
	return nil
}

// openWAL opens (creating if needed) the log in dir, scans every
// segment validating frames and sequence numbers, truncates a torn
// tail, and returns the surviving records oldest first. Corruption
// anywhere cuts the log at that point: later bytes of that segment are
// truncated away and later segments deleted (append-only logs corrupt
// at the tail; anything else is operator damage and recovering the
// prefix is the best available answer). snapSeq is the position of the
// snapshot recovery loaded: the log must hold every record after it,
// and appends continue after it even when no record survives. Every
// check runs before anything is changed, so an unreadable version or a
// gap leaves the directory as it was.
func openWAL(dir string, fsync bool, segBytes int64, snapSeq uint64) (*wal, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: wal dir: %w", err)
	}
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	l, err := scanLog(dir)
	if err != nil {
		return nil, nil, err
	}
	records := l.records()
	if err := l.checkGap(dir, snapSeq, records); err != nil {
		return nil, nil, err
	}
	w := &wal{dir: dir, fsync: fsync, segBytes: segBytes, segs: l.segs, seq: snapSeq}
	scans := l.scans
	if l.cut < len(l.segs) {
		// Torn or corrupt frame: cut the log here. Truncate this segment
		// to its good prefix and drop any later segments.
		if err := os.Truncate(l.segs[l.cut].path, scans[l.cut].good); err != nil {
			return nil, nil, fmt.Errorf("durable: truncate torn tail: %w", err)
		}
		scans[l.cut].size = scans[l.cut].good
		for _, seg := range l.segs[l.cut+1:] {
			os.Remove(seg.path)
		}
		w.segs, scans = l.segs[:l.cut+1], scans[:l.cut+1]
	}
	if n := len(records); n > 0 {
		w.seq = max(w.seq, records[n-1].Seq)
	}

	// Append into the last segment if it is of the current version. An
	// empty one (or one torn inside its header) is started over under the
	// same name; an older one is kept for reading and a current segment
	// follows it.
	if n := len(w.segs); n > 0 {
		last, sc := w.segs[n-1], scans[n-1]
		switch {
		case sc.current:
			f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, nil, fmt.Errorf("durable: open segment: %w", err)
			}
			w.f, w.fBytes = f, sc.size
			return w, records, nil
		case len(sc.recs) == 0:
			if err := os.Remove(last.path); err != nil {
				return nil, nil, fmt.Errorf("durable: remove empty segment: %w", err)
			}
			w.segs = w.segs[:n-1]
		}
	}
	if err := w.rotateLocked(); err != nil {
		return nil, nil, err
	}
	return w, records, nil
}

// rotateLocked closes the active segment (if any) and starts a new one
// whose name carries the next sequence number, or the last segment's
// name plus one if that is larger. Version 1 restarted its numbering at
// 1 after a clean close, so its segment after the snapshot can be named
// past its records; the new name must sort after it all the same, and
// so must the name after a segment that was rotated holding a single
// record. Caller holds w.mu (or is openWAL before the wal escapes).
func (w *wal) rotateLocked() error {
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	first := w.seq + 1
	if n := len(w.segs); n > 0 && w.segs[n-1].first >= first {
		first = w.segs[n-1].first + 1
	}
	seg := walSegment{
		path:  filepath.Join(w.dir, fmt.Sprintf("%s%020d%s", walPrefix, first, walSuffix)),
		first: first,
	}
	f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: new segment: %w", err)
	}
	if _, err := f.Write(fileHeader(walMagic)); err != nil {
		f.Close()
		os.Remove(seg.path)
		return fmt.Errorf("durable: new segment: %w", err)
	}
	w.f, w.fBytes = f, fileHdr
	w.segs = append(w.segs, seg)
	return nil
}

// append assigns rec the next sequence number and writes its frame with
// a single write call, encoding straight into the WAL's reused buffer.
// The record is durable against process death when append returns;
// against machine death only with fsync. rec is not retained.
func (w *wal) append(rec *Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("durable: wal closed")
	}
	if w.broken != nil {
		return w.broken
	}
	rec.Seq = w.seq + 1
	w.enc.b = append(w.enc.b[:0], make([]byte, frameHdr)...)
	if err := w.enc.record(rec); err != nil {
		return fmt.Errorf("durable: encode record: %w", err)
	}
	frame := w.enc.b
	payload := frame[frameHdr:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(frame); err != nil {
		return w.rollbackLocked(fmt.Errorf("durable: append: %w", err))
	}
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			return w.rollbackLocked(fmt.Errorf("durable: fsync: %w", err))
		}
	}
	w.seq = rec.Seq
	w.fBytes += int64(len(frame))
	w.records++
	w.bytes += int64(len(frame))
	if w.fBytes >= w.segBytes {
		return w.rotateLocked()
	}
	return nil
}

// rollbackLocked undoes a failed append: the segment is cut back to its
// last acknowledged frame so the record's torn bytes cannot hide later
// records from the next Open. When even that fails the log is broken.
func (w *wal) rollbackLocked(err error) error {
	if terr := w.f.Truncate(w.fBytes); terr != nil {
		w.broken = fmt.Errorf("durable: wal refuses appends after a failed write could not be undone (%v): %w", terr, err)
	}
	return err
}

// lastSeq returns the sequence number of the most recent append (0 when
// the log is empty).
func (w *wal) lastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// compact rotates to a fresh segment and deletes every segment wholly
// covered by a snapshot at upto (all of its records have seq ≤ upto).
func (w *wal) compact(upto uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("durable: wal closed")
	}
	if w.fBytes > fileHdr {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	kept := w.segs[:0]
	for i, seg := range w.segs {
		// Segment i's records all precede next.first; deletable when it
		// is not the active segment and its last record is covered.
		if i+1 < len(w.segs) && w.segs[i+1].first-1 <= upto {
			os.Remove(seg.path)
			continue
		}
		kept = append(kept, seg)
	}
	w.segs = append([]walSegment(nil), kept...)
	return nil
}

// close releases the active segment. Appends after close fail.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// sizeOnDisk sums the live segments' bytes (telemetry).
func (w *wal) sizeOnDisk() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var total int64
	for _, seg := range w.segs {
		if st, err := os.Stat(seg.path); err == nil {
			total += st.Size()
		}
	}
	return total
}
