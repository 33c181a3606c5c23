package core

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// wallClock matches the wall-clock readings of the sections that take
// them: the crawl's duration, the scale study's throughput row and
// bullets, and the durable study's recovery time, install rates and
// their ratio. The submatch is the text that follows the reading.
var wallClock = []*regexp.Regexp{
	regexp.MustCompile(`[0-9][0-9.]*m?s( over the enumerated)`),
	regexp.MustCompile(`[0-9,]+ \| [0-9,]+ \| [0-9,]+( \|\n\n)`),
	regexp.MustCompile(`[-+]?[0-9][0-9,.]*(s of wall time| MB\.|s\n| polls/s\)|% vs\. the bare)`),
	regexp.MustCompile(`[0-9][0-9,.]*( ms \(complete| installs/s vs | with it off|x overhead)`),
}

// maskWallClock replaces every wall-clock reading in s with "?".
func maskWallClock(s string) string {
	for _, re := range wallClock {
		s = re.ReplaceAllString(s, "?$1")
	}
	return s
}

// TestGoldenSeededStudies runs every report section as cmd/report
// -quick does at seed 1 and compares its markdown byte for byte with
// testdata/<name>.golden. Seeded sections are compared as they are, so
// a moved line is a behaviour change; the others have their wall-clock
// readings masked. Run with -update to rewrite the files after an
// intended change.
//
// Under -race the ecosystem section is skipped: it is the package's
// long pole there (paper-scale dataset generation and the §3 analyses),
// and its call tree (dataset, analysis, perm) starts no goroutine and
// writes no package-level state, so the race detector has nothing to
// find in it. The race-off run compares it as every other section.
func TestGoldenSeededStudies(t *testing.T) {
	for _, sec := range Sections {
		t.Run(sec.Name, func(t *testing.T) {
			if raceEnabled && sec.Name == "ecosystem" {
				t.Skip("single-goroutine study; compared by the race-off run")
			}
			t.Parallel()
			got, err := sec.Run(ReportArgs{Seed: 1, Quick: true, EcoScale: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !sec.Seeded {
				got = maskWallClock(got)
			}
			path := filepath.Join("testdata", sec.Name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s moved from %s:\n--- got\n%s\n--- want\n%s", sec.Name, path, got, want)
			}
		})
	}
}
