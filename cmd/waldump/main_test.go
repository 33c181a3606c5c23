package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func dump(t *testing.T, args ...string) []string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
}

// TestDumpFixtures dumps the checked-in directories of both format
// versions: the same snapshot and the same records, line for line,
// whichever version wrote them.
func TestDumpFixtures(t *testing.T) {
	fixture := func(v string) string { return filepath.Join("..", "..", "internal", "durable", "testdata", v) }
	v1, v2 := dump(t, fixture("v1")), dump(t, fixture("v2"))

	var h1, h2 snapshotHeader
	if err := json.Unmarshal([]byte(v1[0]), &h1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(v2[0]), &h2); err != nil {
		t.Fatal(err)
	}
	want := snapshotHeader{Snapshot: "snap-00000000000000000007.json", WALSeq: 7, Subscriptions: 3, Applets: 3, Retired: 1, Records: 9}
	if h1 != want {
		t.Errorf("v1 header = %+v, want %+v", h1, want)
	}
	want.Snapshot = "snap-00000000000000000007.bin"
	if h2 != want {
		t.Errorf("v2 header = %+v, want %+v", h2, want)
	}
	if len(v1) != 10 || len(v2) != 10 {
		t.Fatalf("dumped %d and %d lines, want a header and 9 records each", len(v1), len(v2))
	}
	ops := []string{"install", "checkpoint", "checkpoint", "attach", "attach", "remove", "detach", "install", "checkpoint"}
	for i, op := range ops {
		if v1[i+1] != v2[i+1] {
			t.Errorf("record %d differs between versions:\n v1 %s\n v2 %s", i, v1[i+1], v2[i+1])
		}
		var rec struct {
			Seq uint64 `json:"seq"`
			Op  string `json:"op"`
		}
		if err := json.Unmarshal([]byte(v2[i+1]), &rec); err != nil || rec.Op != op || rec.Seq != uint64(8+i) {
			t.Errorf("record %d = %s, want seq %d op %s", i, v2[i+1], 8+i, op)
		}
	}
	if err := run(nil, new(bytes.Buffer)); err == nil {
		t.Error("no directory: want a usage error")
	}
}
