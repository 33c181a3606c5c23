package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
)

// daemonEnv makes the test binary run as the daemon itself, so a test
// can SIGKILL a real process and start another on the same directory.
const daemonEnv = "IFTTTD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// baseArgs bind an ephemeral port and keep the log to warnings.
var baseArgs = []string{"-addr", "127.0.0.1:0", "-log-level", "warn"}

// readAddr reads the daemon's "listening on" line from r.
func readAddr(r io.Reader) (string, error) {
	got := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(r).ReadString('\n')
		got <- line
	}()
	select {
	case line := <-got:
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "iftttd listening on ")
		if !ok {
			return "", fmt.Errorf("daemon wrote %q, want its address", line)
		}
		return "http://" + addr, nil
	case <-time.After(30 * time.Second):
		return "", fmt.Errorf("daemon reported no address in 30s")
	}
}

// serve runs the daemon in this process until the test ends and
// returns its base URL.
func serve(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, slices.Concat(baseArgs, args), pw)
		pw.Close()
	}()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	})
	base, err := readAddr(pr)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// daemon starts the daemon as a child process and returns its base URL
// and the process; the test's end kills it.
func daemon(t *testing.T, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(os.Args[0], slices.Concat(baseArgs, args)...)
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	base, err := readAddr(out)
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("%v; stderr:\n%s", err, stderr.String())
	}
	return base, cmd
}

// get fetches base+path and returns the status code and body.
func get(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// metrics returns every scalar series base serves.
func metrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	code, body := get(t, base, "/metrics?format=json")
	var snaps []obs.MetricSnapshot
	if err := json.Unmarshal([]byte(body), &snaps); code != http.StatusOK || err != nil {
		t.Fatalf("GET /metrics: %d %v", code, err)
	}
	out := make(map[string]float64, len(snaps))
	for _, m := range snaps {
		if m.Value != nil {
			out[m.Name] = *m.Value
		}
	}
	return out
}

// eventually retries cond for up to ten seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still false after 10s", what)
		}
	}
}

// An engine with the SLO tier and push ingress serves metrics, the SLO
// status, and readiness.
func TestDaemonSLOAndPush(t *testing.T) {
	base := serve(t, "-slo-target", "120s", "-push")
	for _, path := range []string{"/metrics", "/debug/slo", "/readyz"} {
		if code, body := get(t, base, path); code != http.StatusOK {
			t.Errorf("GET %s = %d: %s", path, code, body)
		}
	}
	if _, ok := metrics(t, base)["ifttt_ingest_queue_depth"]; !ok {
		t.Error("-push mounted no ingress series")
	}
}

// A 4-node cluster lists its nodes on GET /v1/cluster.
func TestDaemonCluster(t *testing.T) {
	base := serve(t, "-cluster-nodes", "4", "-push")
	code, body := get(t, base, "/v1/cluster")
	var st cluster.ClusterStatus
	if err := json.Unmarshal([]byte(body), &st); code != http.StatusOK || err != nil {
		t.Fatalf("GET /v1/cluster = %d %v: %s", code, err, body)
	}
	var names []string
	for _, n := range st.Nodes {
		names = append(names, n.Name)
	}
	if got := strings.Join(names, ","); got != "node0,node1,node2,node3" {
		t.Errorf("cluster nodes %s, want node0..node3", got)
	}
}

// TestDaemonKillRestart installs three applets through -applets with a
// WAL, SIGKILLs the daemon (no final snapshot), and restarts it on the
// same directory without -applets: replay must bring all three back,
// and the durable-store series must be served, in cluster mode summed
// over the nodes. -poll 15m keeps the unreachable trigger URLs from
// being polled during the test.
func TestDaemonKillRestart(t *testing.T) {
	ref := engine.ServiceRef{Service: "svc", BaseURL: "http://127.0.0.1:1", Slug: "act"}
	var applets []engine.Applet
	for i := 1; i <= 3; i++ {
		trig := ref
		trig.Slug = fmt.Sprintf("t%d", i)
		applets = append(applets, engine.Applet{ID: fmt.Sprintf("a%d", i), UserID: fmt.Sprintf("u%d", i), Trigger: trig, Action: ref})
	}
	data, err := json.Marshal(applets)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"engine", nil},
		{"cluster", []string{"-cluster-nodes", "3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			file := filepath.Join(dir, "applets.json")
			if err := os.WriteFile(file, data, 0o644); err != nil {
				t.Fatal(err)
			}
			args := append([]string{"-poll", "15m", "-push", "-wal-dir", filepath.Join(dir, "wal")}, tc.args...)

			base, cmd := daemon(t, append(args, "-applets", file)...)
			if _, body := get(t, base, "/v1/stats"); !strings.Contains(body, `"applets":3`) {
				t.Fatalf("before the kill: %s", body)
			}
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			cmd.Wait()

			base, _ = daemon(t, args...)
			if _, body := get(t, base, "/v1/stats"); !strings.Contains(body, `"applets":3`) {
				t.Fatalf("restart did not recover 3 applets: %s", body)
			}
			eventually(t, "/readyz 200 after replay", func() bool {
				code, _ := get(t, base, "/readyz")
				return code == http.StatusOK
			})
			m := metrics(t, base)
			for _, name := range []string{"ifttt_wal_records_total", "ifttt_wal_appended_bytes_total",
				"ifttt_snapshots_written_total", "ifttt_wal_disk_bytes"} {
				if _, ok := m[name]; !ok {
					t.Errorf("store series %s not served", name)
				}
			}
			if got := m["ifttt_wal_replay_records"]; got != 3 {
				t.Errorf("ifttt_wal_replay_records = %g after a crash before any snapshot, want 3", got)
			}

			// An event for a recovered applet checkpoints to its node's WAL.
			batch := fmt.Sprintf(`{"data":[{"trigger_identity":%q,"events":[{"meta":{"id":"e1","timestamp":%d}}]}]}`,
				applets[0].CoalescedTriggerIdentity(), time.Now().Unix())
			resp, err := http.Post(base+"/v1/push", "application/json", strings.NewReader(batch))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("push = %d", resp.StatusCode)
			}
			eventually(t, "ifttt_wal_records_total > 0 after a push", func() bool {
				return metrics(t, base)["ifttt_wal_records_total"] > 0
			})
		})
	}
}

// TestDaemonRestartFailsOnUnreadableNode: a cluster node whose directory
// does not recover fails start-up, as a single engine's does, instead of
// serving that node empty.
func TestDaemonRestartFailsOnUnreadableNode(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal")
	args := []string{"-cluster-nodes", "3", "-wal-dir", wal}
	t.Run("first", func(t *testing.T) { serve(t, args...) }) // a clean stop snapshots every node
	snaps, err := filepath.Glob(filepath.Join(wal, "node1", "snap-*.bin"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("node1 snapshots %v, %v; want one", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[4:], 9) // a format version this build does not read
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	// With ctx already done, a daemon that starts returns nil at once.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = run(ctx, slices.Concat(baseArgs, args), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "node node1") || !strings.Contains(err.Error(), "version 9") {
		t.Fatalf("run = %v, want node1's format error", err)
	}
}
