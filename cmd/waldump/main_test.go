package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

func dump(t *testing.T, args ...string) []string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
}

// TestDumpFixtures dumps the checked-in directories of every format
// version: the same snapshot and the same records, line for line,
// whichever version wrote them, with each dedup window printed as its
// count and hex hashes.
func TestDumpFixtures(t *testing.T) {
	fixture := func(v string) string { return filepath.Join("..", "..", "internal", "durable", "testdata", v) }
	dumps := map[string][]string{}
	for _, v := range []string{"v1", "v2", "v3"} {
		dumps[v] = dump(t, fixture(v))
	}
	for v, lines := range dumps {
		var h snapshotHeader
		if err := json.Unmarshal([]byte(lines[0]), &h); err != nil {
			t.Fatal(err)
		}
		want := snapshotHeader{Snapshot: "snap-00000000000000000007.bin", WALSeq: 7, Subscriptions: 3, Applets: 3, Retired: 1, Records: 9}
		if v == "v1" {
			want.Snapshot = "snap-00000000000000000007.json"
		}
		if h != want {
			t.Errorf("%s header = %+v, want %+v", v, h, want)
		}
		if len(lines) != 10 {
			t.Fatalf("%s: dumped %d lines, want a header and 9 records", v, len(lines))
		}
	}
	v3 := dumps["v3"]
	ops := []string{"install", "checkpoint", "checkpoint", "attach", "attach", "remove", "detach", "install", "checkpoint"}
	for i, op := range ops {
		for _, v := range []string{"v1", "v2"} {
			if dumps[v][i+1] != v3[i+1] {
				t.Errorf("record %d differs between versions:\n %s %s\n v3 %s", i, v, dumps[v][i+1], v3[i+1])
			}
		}
		var rec struct {
			Seq uint64 `json:"seq"`
			Op  string `json:"op"`
		}
		if err := json.Unmarshal([]byte(v3[i+1]), &rec); err != nil || rec.Op != op || rec.Seq != uint64(8+i) {
			t.Errorf("record %d = %s, want seq %d op %s", i, v3[i+1], 8+i, op)
		}
	}
	// The first attach record (seq 11) carries a6 remembering q1 and a7
	// remembering q1 and q2.
	var attach struct {
		Attach struct {
			Members []struct {
				SeenEvents struct {
					Count  int      `json:"count"`
					Hashes []string `json:"hashes"`
				}
			}
		} `json:"attach"`
	}
	if err := json.Unmarshal([]byte(v3[4]), &attach); err != nil {
		t.Fatal(err)
	}
	hex := func(id string) string { return fmt.Sprintf("%016x", engine.IDHash(id)) }
	var got [][]string
	for _, m := range attach.Attach.Members {
		if m.SeenEvents.Count != len(m.SeenEvents.Hashes) {
			t.Errorf("window count %d for %d hashes", m.SeenEvents.Count, len(m.SeenEvents.Hashes))
		}
		for _, h := range m.SeenEvents.Hashes {
			if len(h) != 16 {
				t.Errorf("hash %q is not 16 hex digits", h)
			}
		}
		got = append(got, m.SeenEvents.Hashes)
	}
	if want := [][]string{{hex("q1")}, {hex("q1"), hex("q2")}}; !reflect.DeepEqual(got, want) {
		t.Errorf("attach windows = %v, want %v", got, want)
	}
	if err := run(nil, new(bytes.Buffer)); err == nil {
		t.Error("no directory: want a usage error")
	}
}
