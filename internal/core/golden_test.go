package core

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// wallClock matches the durable section's wall-clock readings: the
// recovery time, the two install rates and their ratio.
var wallClock = regexp.MustCompile(`[0-9][0-9,.]*( ms \(complete| installs/s vs | with it off|x overhead)`)

// TestGoldenSeededStudies runs the push-vs-poll, cluster and durable
// studies at cmd/report -quick's size and seed and compares each
// formatted section byte for byte with testdata/<name>.golden. Every
// number in them comes from a simulated clock and a seeded RNG, so a
// moved line is a behaviour change. Run with -update to rewrite the
// files after an intended one.
func TestGoldenSeededStudies(t *testing.T) {
	const seed = 1
	studies := []struct {
		name string
		run  func() (string, error)
	}{
		{"push_vs_poll", func() (string, error) {
			r, err := RunPushVsPoll(QuickPushVsPollConfig(seed))
			if err != nil {
				return "", err
			}
			return FormatPushVsPoll(r), nil
		}},
		{"cluster_chaos", func() (string, error) {
			r, err := RunClusterChaos(QuickClusterChaosConfig(seed))
			if err != nil {
				return "", err
			}
			return FormatClusterChaos(r), nil
		}},
		{"durable_churn", func() (string, error) {
			r, err := RunDurableChurn(QuickDurableChurnConfig(seed))
			if err != nil {
				return "", err
			}
			return wallClock.ReplaceAllString(FormatDurableChurn(r), "?$1"), nil
		}},
	}
	for _, st := range studies {
		t.Run(st.name, func(t *testing.T) {
			got, err := st.run()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", st.name+".golden")
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
				t.Errorf("%s moved from %s:\n--- got\n%s\n--- want\n%s", st.name, path, got, want)
			}
		})
	}
}
