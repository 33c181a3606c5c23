package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite testdata/v2 from testdata/v1")

// tornFrame is a frame header promising more payload than follows.
func tornFrame() []byte {
	b := binary.LittleEndian.AppendUint32(nil, 300)
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	return append(b, "torn"...)
}

// writeV2Fixture writes into dir the content of fixture src in the v2
// format: its snapshot image, its surviving records under the same
// sequence numbers, and a torn final frame.
func writeV2Fixture(t *testing.T, src, dir string) {
	t.Helper()
	img, err := Inspect(filepath.Join("testdata", src))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(dir, img.Snapshot); err != nil {
		t.Fatal(err)
	}
	w, _, err := openWAL(dir, false, 0, img.Snapshot.WALSeq)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range img.Records {
		want := rec.Seq
		if err := w.append(&rec); err != nil || rec.Seq != want {
			t.Fatalf("append seq %d: %v (assigned %d)", want, err, rec.Seq)
		}
	}
	w.close()
	f, err := os.OpenFile(lastSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(tornFrame()); err != nil {
		t.Fatal(err)
	}
}

// dirFiles reads every file of dir by name.
func dirFiles(tb testing.TB, dir string) map[string][]byte {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	files := map[string][]byte{}
	for _, en := range entries {
		data, err := os.ReadFile(filepath.Join(dir, en.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		files[en.Name()] = data
	}
	return files
}

// TestV2FixtureMatchesV1 re-encodes the v1 fixture in the v2 format and
// requires it byte-equal to testdata/v2 (the encoding is deterministic:
// -update rewrites it) and to testdata/v2 read and written again (what
// the codec decodes it encodes back unchanged), then recovers
// testdata/v2 to exactly what the v1 directory recovers to.
func TestV2FixtureMatchesV1(t *testing.T) {
	dir := t.TempDir()
	writeV2Fixture(t, "v1", dir)
	golden := filepath.Join("testdata", "v2")
	if *update {
		os.RemoveAll(golden)
		os.MkdirAll(golden, 0o755)
		for name, data := range dirFiles(t, dir) {
			if err := os.WriteFile(filepath.Join(golden, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := dirFiles(t, dir), dirFiles(t, golden); !reflect.DeepEqual(got, want) {
		t.Fatal("re-encoding testdata/v1 does not reproduce testdata/v2 byte for byte (go test ./internal/durable -run TestV2FixtureMatchesV1 -update rewrites it)")
	}
	again := t.TempDir()
	writeV2Fixture(t, "v2", again)
	if !reflect.DeepEqual(dirFiles(t, again), dirFiles(t, golden)) {
		t.Fatal("testdata/v2 does not round-trip through the codec byte for byte")
	}

	recover := func(name string) recoveredView {
		st, err := Open(Options{Dir: fixtureDir(t, name), Clock: simtime.NewSimDefault()})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Abandon()
		return viewOf(st.RecoveredState())
	}
	if v1, v2 := recover("v1"), recover("v2"); !reflect.DeepEqual(v1, v2) {
		t.Fatalf("v2 fixture recovers to\n %+v\nv1 to\n %+v", v2, v1)
	}
}

// TestV1DirectoryUpgrades: a v1 directory takes v2 appends in a new
// segment — through a crash before any append, a crash after one and a
// snapshot after one — recovers them across restarts, and loses its v1
// files to the first v2 snapshot that covers them. testdata/v1-restart was
// written by the version 1 code installing r0 and r1, closing cleanly
// (snapshot at seq 2, then an empty wal-3), reopening, installing r2 and
// crashing. That restart numbered r2's record 1, so wal-3 holds a record
// the snapshot seems to cover and both versions recover r0 and r1 only;
// the v2 segment must still be named past wal-3.
func TestV1DirectoryUpgrades(t *testing.T) {
	for _, tc := range []struct {
		fixture, v1Segment, v2Segment string
		recovers                      []string
	}{
		{"v1", "wal-00000000000000000008.log", "wal-00000000000000000017.log", []string{"a1", "a3", "a4", "a6", "a7", "a9"}},
		{"v1-restart", "wal-00000000000000000003.log", "wal-00000000000000000004.log", []string{"r0", "r1"}},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			dir := fixtureDir(t, tc.fixture)
			want := map[string]bool{}
			for _, id := range tc.recovers {
				want[id] = true
			}
			// The v1 fixture parks a push delivery, which Restore
			// dispatches at once: no dispatch delay, or it would sleep on
			// a clock that is not running.
			noDelay := func(c *engine.Config) { c.DispatchDelay = -1 }
			open := func() *storeRig {
				t.Helper()
				r := newStoreRig(t, dir, 3, noDelay, nil)
				if got, _ := r.store.RecoveredState(); !reflect.DeepEqual(appletIDs(got), want) {
					t.Fatalf("recovered %v, want %v", appletIDs(got), want)
				}
				return r
			}
			r := open()
			r.clock.Run(func() { // crash before any append
				r.eng.Stop()
				r.store.Abandon()
			})
			if seg := lastSegment(t, dir); !strings.HasSuffix(seg, tc.v2Segment) {
				t.Fatalf("the v2 segment is %s, want %s after the v1 one", seg, tc.v2Segment)
			}
			r = open()
			r.clock.Run(func() {
				if err := r.eng.Install(soakApplet("fresh")); err != nil {
					t.Error(err)
				}
				r.eng.Stop()
				r.store.Abandon()
			})
			want["fresh"] = true
			r = open()
			r.clock.Run(func() {
				if err := r.store.Snapshot(); err != nil { // rotates after one record
					t.Error(err)
				}
				if err := r.eng.Install(soakApplet("fresh2")); err != nil {
					t.Error(err)
				}
				r.eng.Stop()
				r.store.Abandon()
			})
			want["fresh2"] = true
			r = open()
			r.clock.Run(func() {
				r.eng.Stop()
				if err := r.store.Close(); err != nil { // final snapshot, compaction
					t.Error(err)
				}
			})
			for name := range dirFiles(t, dir) {
				if strings.HasSuffix(name, snapSuffixV1) || name == tc.v1Segment {
					t.Errorf("v1 file %s survived the v2 snapshots", name)
				}
			}
			open().store.Abandon()
		})
	}
}

// TestUnknownVersionFailsOpen: a segment or an image whose magic matches
// but whose version is not one this build reads fails Open with an error
// naming the file and the version, and nothing in the directory changes
// — before, such a segment read as a torn tail and was truncated along
// with every later segment.
func TestUnknownVersionFailsOpen(t *testing.T) {
	for _, tc := range []struct{ name, file string }{
		{"segment", "wal-00000000000000000001.log"},
		{"snapshot", "snap-00000000000000000003.bin"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, _, err := openWAL(dir, false, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				w.append(recPtr(i))
			}
			w.close()
			if tc.name == "snapshot" {
				if err := writeSnapshot(dir, &Snapshot{WALSeq: 3}); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(dir, tc.file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint32(data[4:], 9)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirFiles(t, dir)
			_, err = Open(Options{Dir: dir, Clock: simtime.NewSimDefault()})
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "version 9") {
				t.Fatalf("Open = %v, want an error naming %s and version 9", err, path)
			}
			if !reflect.DeepEqual(dirFiles(t, dir), before) {
				t.Fatal("a failed Open changed the directory")
			}
		})
	}
}

// TestSnapshotFallbackGapFails: two snapshots with churn between them,
// the newest damaged. The fallback image is older than the log
// compacted behind the newest, so replaying from it would silently lose
// the churn; Open must fail instead.
func TestSnapshotFallbackGapFails(t *testing.T) {
	dir := t.TempDir()
	r := newStoreRig(t, dir, 11, nil, nil)
	r.clock.Run(func() {
		for _, id := range []string{"g0", "g1", "g2"} {
			if err := r.eng.Install(soakApplet(id)); err != nil {
				t.Error(err)
			}
		}
		if err := r.store.Snapshot(); err != nil {
			t.Error(err)
		}
		r.eng.Remove("g0")
		if err := r.eng.Install(soakApplet("g3")); err != nil {
			t.Error(err)
		}
		if err := r.store.Snapshot(); err != nil {
			t.Error(err)
		}
		r.eng.Stop()
		r.store.Abandon()
	})
	names := snapshotFiles(dir)
	if len(names) != 2 {
		t.Fatalf("snapshot generations %v, want 2", names)
	}
	newest := filepath.Join(dir, names[1])
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Options{Dir: dir, Clock: simtime.NewSimDefault()})
	if err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("Open after the newest image was damaged = %v, want a gap error", err)
	}

	// The same holds inside the log: a segment missing after the one the
	// snapshot ends in.
	dir = t.TempDir()
	w, _, err := openWAL(dir, false, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		w.append(recPtr(i))
	}
	segs := w.segs
	w.close()
	if len(segs) < 4 {
		t.Fatalf("%d segments, want several", len(segs))
	}
	os.Remove(segs[1].path)
	if _, _, err := openWAL(dir, false, 256, segs[1].first-1); err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("openWAL with a segment missing after the snapshot = %v, want a gap error", err)
	}

	// No gap, though, where a segment is named past its first record:
	// after the v1-restart upgrade wal-4 holds seq 3, and compaction at
	// seq 3 deletes wal-3 but keeps it. Falling back to the image at seq 2
	// still finds every record after it.
	dir = fixtureDir(t, "v1-restart")
	w, _, err = openWAL(dir, false, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(recPtr(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.compact(3); err != nil {
		t.Fatal(err)
	}
	w.close()
	if _, err := os.Stat(filepath.Join(dir, "wal-00000000000000000003.log")); !os.IsNotExist(err) {
		t.Fatalf("wal-3 after compaction at seq 3: %v", err)
	}
	w, recs, err := openWAL(dir, false, 0, 2)
	if err != nil || len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("openWAL behind wal-4 = %v, %d records, want seq 3", err, len(recs))
	}
	w.close()
}

// TestAppendsContinueAfterCleanClose: a clean Close leaves a snapshot and
// an empty segment; appends after the restart must continue the
// sequence past the snapshot, or the next recovery skips them as
// already covered.
func TestAppendsContinueAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	r1 := newStoreRig(t, dir, 5, nil, nil)
	r1.clock.Run(func() {
		for _, id := range []string{"k0", "k1"} {
			if err := r1.eng.Install(soakApplet(id)); err != nil {
				t.Error(err)
			}
		}
		r1.eng.Stop()
		r1.store.Close()
	})
	r2 := newStoreRig(t, dir, 5, nil, nil)
	r2.clock.Run(func() {
		if err := r2.eng.Install(soakApplet("k2")); err != nil {
			t.Error(err)
		}
		r2.eng.Stop()
		r2.store.Abandon() // crash: k2 lives only in the log
	})
	r3 := newStoreRig(t, dir, 5, nil, nil)
	defer r3.store.Abandon()
	if _, applets := r3.store.RecoveredCounts(); applets != 3 {
		t.Fatalf("recovered %d applets, want 3", applets)
	}
}

// shortWriter is the file seam's fault: its next write stores only half
// the frame and fails; with failTruncate the rollback fails too.
type shortWriter struct {
	segmentFile
	armed, failTruncate bool
}

func (s *shortWriter) Write(p []byte) (int, error) {
	if !s.armed {
		return s.segmentFile.Write(p)
	}
	s.armed = false
	n, _ := s.segmentFile.Write(p[:len(p)/2])
	return n, errors.New("no space left on device")
}

func (s *shortWriter) Truncate(size int64) error {
	if s.failTruncate {
		return errors.New("read-only file system")
	}
	return s.segmentFile.Truncate(size)
}

// TestFailedWriteRollsBack: a short write's torn bytes are cut off
// before the error returns, so appends acknowledged after it survive the
// next Open; when the cut itself fails the log refuses further appends
// instead of acknowledging records the next Open would discard.
func TestFailedWriteRollsBack(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sw := &shortWriter{segmentFile: w.f}
	w.f = sw
	var acked []Record
	for i := 0; i < 6; i++ {
		sw.armed = i == 2
		rec := mkRecord(i)
		if err := w.append(&rec); err != nil {
			if i != 2 {
				t.Fatalf("append %d: %v", i, err)
			}
			continue
		}
		acked = append(acked, rec)
	}
	w.close()
	_, recs, err := openWAL(dir, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameOps(t, recs, acked)
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}

	dir = t.TempDir()
	w, _, err = openWAL(dir, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.f = &shortWriter{segmentFile: w.f, armed: true, failTruncate: true}
	if err := w.append(recPtr(0)); err == nil {
		t.Fatal("short write reported success")
	}
	if err := w.append(recPtr(1)); err == nil || !strings.Contains(err.Error(), "refuses appends") {
		t.Fatalf("append after an unrecoverable write = %v, want a refusal", err)
	}
}

// TestStoreAppendAllocs: the three appends the engine makes per install,
// removal and execution encode straight into the WAL's buffer.
func TestStoreAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	st, err := Open(Options{Dir: t.TempDir(), Clock: simtime.NewSimDefault()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Abandon()
	a := soakApplet("alloc")
	a.Trigger.Fields = map[string]string{"which": "alloc", "room": "hall", "n": "7"}
	cp := engine.Checkpoint{Key: "ti-alloc", Members: []engine.MemberEvents{
		{AppletID: "alloc", EventIDs: []string{"ev-1", "ev-2"}},
		{AppletID: "other", EventIDs: []string{"ev-2"}},
	}}
	for name, fn := range map[string]func() error{
		"AppendInstall":    func() error { return st.AppendInstall(a) },
		"AppendRemove":     func() error { return st.AppendRemove("alloc") },
		"AppendCheckpoint": func() error { return st.AppendCheckpoint(cp) },
	} {
		fn() // warm the buffers
		if n := testing.AllocsPerRun(200, func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", name, n)
		}
	}
}

// fuzzSeeds adds the fixtures' files that want accepts.
func fuzzSeeds(f *testing.F, want func(name string) bool) {
	for _, v := range []string{"v1", "v2"} {
		for name, data := range dirFiles(f, filepath.Join("testdata", v)) {
			if want(name) {
				f.Add(data)
			}
		}
	}
}

// decodeBounded runs decode and fails when it allocated out of
// proportion to the n bytes it was given: a count or length taken from
// the input must have been checked against the bytes left before
// anything was sized by it. The runtime's cumulative heap-allocation
// counter lags by what the per-P caches hold, well inside the slack; an
// allocation sized by an unchecked length would be orders beyond it.
func decodeBounded(t *testing.T, n int, decode func()) {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	decode()
	metrics.Read(sample)
	if got := sample[0].Value.Uint64() - before; got > uint64(256*n+1<<20) {
		t.Fatalf("decoding %d bytes allocated %d bytes", n, got)
	}
}

// recordFixedPoint: a decoded record re-encodes to bytes that decode
// and re-encode to themselves.
func recordFixedPoint(t *testing.T, rec *Record) {
	var e, e2 encoder
	if err := e.record(rec); err != nil {
		t.Fatalf("re-encode %+v: %v", rec, err)
	}
	again, err := decodeRecord(e.b)
	if err != nil {
		t.Fatalf("re-encoded record does not decode: %v", err)
	}
	e2.record(&again)
	if !bytes.Equal(e.b, e2.b) {
		t.Fatalf("record encoding is not a fixed point:\n %x\n %x", e.b, e2.b)
	}
}

// FuzzReadSegment: any segment bytes scan without panicking, and every
// record read re-encodes to a fixed point. The CRC keeps random bytes
// from ever reaching the record decoder through a frame, so the input
// is also decoded as one bare payload. Seeds: both fixtures' segments
// and the v2 fixture's payloads.
func FuzzReadSegment(f *testing.F) {
	fuzzSeeds(f, func(name string) bool { return strings.HasPrefix(name, walPrefix) })
	for name, data := range dirFiles(f, filepath.Join("testdata", "v2")) {
		if sc, err := scanSegment(name, data, 0); err == nil && sc.v2 {
			for off := int64(fileHdr); off < sc.good; {
				n := int64(binary.LittleEndian.Uint32(data[off:]))
				f.Add(data[off+frameHdr : off+frameHdr+n])
				off += frameHdr + n
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc segmentScan
		var err error
		decodeBounded(t, len(data), func() { sc, err = scanSegment("fuzz", data, 0) })
		if fe := (*formatError)(nil); err != nil && !errors.As(err, &fe) {
			t.Fatalf("scan failed with %v, want a version error or a torn tail", err)
		}
		if sc.good < 0 || sc.good > sc.size {
			t.Fatalf("good prefix %d of %d bytes", sc.good, sc.size)
		}
		for i := range sc.recs {
			if sc.v2 {
				recordFixedPoint(t, &sc.recs[i])
			}
		}
		var rec Record
		decodeBounded(t, len(data), func() { rec, err = decodeRecord(data) })
		if err == nil {
			recordFixedPoint(t, &rec)
		}
	})
}

// FuzzDecodeSnapshot: any image bytes decode without panicking in
// either version, and as a bare v2 body without allocating out of
// proportion; a decoded body re-encodes to a fixed point. Seeds: both
// fixtures' images and the v2 image's body.
func FuzzDecodeSnapshot(f *testing.F) {
	fuzzSeeds(f, func(name string) bool { return strings.HasPrefix(name, snapPrefix) })
	for name, data := range dirFiles(f, filepath.Join("testdata", "v2")) {
		if strings.HasPrefix(name, snapPrefix) {
			f.Add(data[fileHdr : len(data)-4])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeBounded(t, len(data), func() {
			decodeSnapshot("snap.bin", data)
			decodeSnapshot("snap.json", data)
		})
		var snap *Snapshot
		var err error
		decodeBounded(t, len(data), func() { snap, err = decodeSnapshotBody(data) })
		if err != nil {
			return
		}
		var e, e2 encoder
		e.snapshotBody(snap)
		again, err := decodeSnapshotBody(e.b)
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		e2.snapshotBody(again)
		if !bytes.Equal(e.b, e2.b) {
			t.Fatal("image encoding is not a fixed point")
		}
	})
}
