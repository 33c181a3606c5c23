package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
)

func mkRecord(i int) Record {
	switch i % 3 {
	case 0:
		return Record{Op: OpInstall, Applet: &engine.Applet{
			ID:     fmt.Sprintf("a%04d", i),
			UserID: "u1",
			Trigger: engine.ServiceRef{
				Service: "svc", BaseURL: "http://svc.sim", Slug: "fired",
				Fields: map[string]string{"n": fmt.Sprintf("%d", i)},
			},
			Action: engine.ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "act"},
		}}
	case 1:
		return Record{Op: OpCheckpoint, Checkpoint: &engine.Checkpoint{
			Key: fmt.Sprintf("ti-%04d", i),
			Members: []engine.MemberEvents{
				{AppletID: fmt.Sprintf("a%04d", i-1), EventIDs: []string{"e1", "e2"}},
			},
		}}
	default:
		return Record{Op: OpRemove, ID: fmt.Sprintf("a%04d", i-2)}
	}
}

func recPtr(i int) *Record {
	rec := mkRecord(i)
	return &rec
}

// stripSeq compares records ignoring assigned sequence numbers.
func sameOps(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count = %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		g.Seq, w.Seq = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

func TestWALAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs, err := openWAL(dir, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log returned %d records", len(recs))
	}
	var want []Record
	for i := 0; i < 50; i++ {
		rec := mkRecord(i)
		if err := w.append(&rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	if got := w.lastSeq(); got != 50 {
		t.Fatalf("lastSeq = %d, want 50", got)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	w2, recs2, err := openWAL(dir, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	sameOps(t, recs2, want)
	for i, rec := range recs2 {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
	// Appends continue the sequence.
	if err := w2.append(recPtr(50)); err != nil {
		t.Fatal(err)
	}
	if got := w2.lastSeq(); got != 51 {
		t.Fatalf("lastSeq after reopen+append = %d, want 51", got)
	}
}

// lastSegment returns the path of the newest WAL segment in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, en := range entries {
		if len(en.Name()) > len(walPrefix) && en.Name()[:len(walPrefix)] == walPrefix {
			if last == "" || en.Name() > last {
				last = en.Name()
			}
		}
	}
	if last == "" {
		t.Fatal("no wal segment found")
	}
	return filepath.Join(dir, last)
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, en := range entries {
		data, err := os.ReadFile(filepath.Join(src, en.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, en.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestWALTornTailTruncation cuts the segment file at every byte offset
// and proves recovery yields a clean prefix of the original records —
// never an error, never a corrupted record — and that the log accepts
// appends afterwards.
func TestWALTornTailTruncation(t *testing.T) {
	src := t.TempDir()
	w, _, err := openWAL(src, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 12; i++ {
		rec := mkRecord(i)
		if err := w.append(&rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	w.close()
	seg := lastSegment(t, src)
	size, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}

	prevRecovered := -1
	for off := size.Size() - 1; off >= 0; off -= 7 { // stride keeps the test fast
		dir := copyDir(t, src)
		if err := os.Truncate(lastSegment(t, dir), off); err != nil {
			t.Fatal(err)
		}
		w2, recs, err := openWAL(dir, false, 0, 0)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		sameOps(t, recs, want[:len(recs)])
		if prevRecovered >= 0 && len(recs) > prevRecovered {
			t.Fatalf("offset %d recovered %d records, more than larger offset recovered (%d)", off, len(recs), prevRecovered)
		}
		prevRecovered = len(recs)
		// The truncated log must accept appends and read back clean.
		if err := w2.append(recPtr(99)); err != nil {
			t.Fatalf("offset %d: append after truncation: %v", off, err)
		}
		w2.close()
		_, recs3, err := openWAL(dir, false, 0, 0)
		if err != nil {
			t.Fatalf("offset %d: reopen: %v", off, err)
		}
		if len(recs3) != len(recs)+1 {
			t.Fatalf("offset %d: reopen saw %d records, want %d", off, len(recs3), len(recs)+1)
		}
	}
	if prevRecovered != 0 {
		t.Fatalf("full truncation recovered %d records, want 0", prevRecovered)
	}
}

// TestWALMidFileCorruption flips a byte in the middle of the log: the
// prefix before the damaged frame recovers, everything after (including
// later segments) is discarded.
func TestWALMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, false, 256, 0) // small segments: corruption lands mid-log with later segments present
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := w.append(recPtr(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.close()

	segs, _ := os.ReadDir(dir)
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	first := filepath.Join(dir, segs[0].Name())
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, recs, err := openWAL(dir, false, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if len(recs) >= 40 {
		t.Fatalf("corrupt log recovered %d records, want a strict prefix", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d after corruption recovery", i, rec.Seq)
		}
	}
	// Later segments must be gone: the log was cut at the corruption.
	entries, _ := os.ReadDir(dir)
	if len(entries) > 2 { // truncated first segment + possibly one fresh append segment
		t.Fatalf("%d files survive mid-log corruption, want the cut prefix only", len(entries))
	}
}

// TestWALCompaction checks segment rotation under a tiny size bound and
// that compact removes exactly the segments a snapshot covers.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, false, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := w.append(recPtr(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := len(w.segs)
	if before < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", before)
	}
	if err := w.compact(30); err != nil {
		t.Fatal(err)
	}
	w.close()

	// The log is reopened behind the snapshot it was compacted for; on its
	// own it no longer holds seq 1 onwards, and Open says so.
	if _, _, err := openWAL(dir, false, 256, 0); err == nil {
		t.Fatal("compacted log opened without its snapshot: want a gap error")
	}
	_, recs, err := openWAL(dir, false, 256, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs) >= 60 {
		t.Fatalf("compacted log recovered %d records", len(recs))
	}
	// Every surviving record the snapshot did not cover must be present:
	// the tail from the first kept segment through seq 60 is contiguous.
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("gap after compaction: seq %d then %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
	if last := recs[len(recs)-1].Seq; last != 60 {
		t.Fatalf("last surviving seq = %d, want 60", last)
	}
	if first := recs[0].Seq; first > 31 {
		t.Fatalf("first surviving seq = %d; compaction deleted records beyond the covered point (31 must survive)", first)
	}
}
