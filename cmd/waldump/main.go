// Command waldump prints an iftttd persistence directory (-wal-dir) as
// JSON lines, without changing it: first the snapshot recovery would
// load, as a header, then every WAL record that survives the torn-tail
// cut, one per line, in the JSON shape of the version 1 payload. It
// reads both format versions.
//
// Usage:
//
//	waldump /var/lib/iftttd/wal
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/durable"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "waldump:", err)
		os.Exit(1)
	}
}

// snapshotHeader is the first line: which image recovery loads and what
// it holds.
type snapshotHeader struct {
	Snapshot      string `json:"snapshot"` // file name; empty when there is none
	WALSeq        uint64 `json:"wal_seq"`
	Coalesce      bool   `json:"coalesce"`
	Subscriptions int    `json:"subscriptions"`
	Applets       int    `json:"applets"`
	Retired       int    `json:"retired"`
	Records       int    `json:"records"`
}

func run(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: waldump DIR")
	}
	img, err := durable.Inspect(args[0])
	if err != nil {
		return err
	}
	hdr := snapshotHeader{Snapshot: img.SnapshotFile, Records: len(img.Records)}
	if s := img.Snapshot; s != nil {
		hdr.WALSeq, hdr.Coalesce, hdr.Subscriptions, hdr.Retired = s.WALSeq, s.Coalesce, len(s.Subs), len(s.Retired)
		for _, ss := range s.Subs {
			hdr.Applets += len(ss.Members)
		}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for i := range img.Records {
		if err := enc.Encode(&img.Records[i]); err != nil {
			return err
		}
	}
	return nil
}
