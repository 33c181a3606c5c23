package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

func (t *tracer) startProfile(o options) {
	if t == nil {
		return
	}
	dir := filepath.Join(o.outDir, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("cpu-%s-%d.pprof", o.workload, os.Getpid())))
	if err != nil {
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return
	}
	t.profile = f
}

// cpuBuckets maps a package to the layer its samples are charged to.
// Anything not listed lands in "stdlib" (other standard-library code)
// or, failing that, "other".
var cpuBuckets = []struct{ prefix, layer string }{
	{"repro/internal/simtime", "simtime"},
	{"repro/internal/engine", "engine"},
	{"repro/internal/httpx", "httpx"},
	{"repro/internal/proto", "proto"},
	{"repro/internal/ingest", "ingest"},
	{"repro/internal/durable", "durable"},
	{"repro/internal/cluster", "cluster"},
	{"repro/internal/obs", "obs"},
	{"repro/internal/stats", "engine"},
	{"encoding/json", "json"},
	{"reflect", "json"},
	{"encoding/base64", "json"},
	{"unicode/utf8", "json"},
	{"unicode/utf16", "json"},
	{"main", "bench"},
	{"runtime", "runtime"},
	{"internal/runtime", "runtime"},
	{"internal/abi", "runtime"},
	{"internal/bytealg", "runtime"},
	{"internal/cpu", "runtime"},
	{"gcWriteBarrier", "runtime"},
	{"memeqbody", "runtime"},
	{"cmpbody", "runtime"},
	{"indexbytebody", "runtime"},
	{"aeshashbody", "runtime"},
	{"memhash", "runtime"},
	{"strhash", "runtime"},
}

var cpuLayers = []string{"simtime", "engine", "httpx", "proto", "json", "ingest", "durable", "cluster", "obs", "runtime", "bench", "stdlib", "other"}

// funcPackage returns the package path of a symbol as pprof prints it.
func funcPackage(fn string) string {
	// Receivers and type arguments may hold slashes of their own.
	if i := strings.IndexAny(fn, "([ "); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func layerOf(fn string) string {
	pkg := funcPackage(fn)
	for _, b := range cpuBuckets {
		if pkg == b.prefix || strings.HasPrefix(pkg, b.prefix+"/") {
			return b.layer
		}
	}
	// What is left of the standard library has no dot in its import path.
	if !strings.Contains(pkg, ".") && !strings.HasPrefix(pkg, "repro") {
		return "stdlib"
	}
	return "other"
}

// stopProfile ends the window's CPU profile and buckets its flat
// samples by package with `go tool pprof -top`.
func (t *tracer) stopProfile(r *run) {
	if t == nil || t.profile == nil {
		return
	}
	pprof.StopCPUProfile()
	name := t.profile.Name()
	t.profile.Close()
	t.profile = nil
	defer os.Remove(name)
	exe, err := os.Executable()
	if err != nil {
		return
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", exe, name)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(name))
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: go tool pprof:", err)
		return
	}
	share := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	table := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !table {
			table = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat := parseDuration(f[0])
		total += flat
		share[layerOf(strings.Join(f[5:], " "))] += flat
	}
	if total == 0 {
		return
	}
	for _, l := range cpuLayers {
		r.layers[l+".cpu_share"] = share[l] / total
	}
}

// parseDuration reads pprof's "1.23s" / "450ms" / "10us" flat column.
func parseDuration(s string) float64 {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1}, {"min", 60}, {"hrs", 3600}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err == nil {
				return v * u.scale
			}
		}
	}
	return 0
}
