package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultFile is one run's result object, as print wrote it.
type resultFile struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compare is the repeatability check behind `run.sh --repeat N`: for
// every end-to-end metric and workload it prints how far apart the sets
// read, (max-min)/min over all of them, beside the metric's bound. The
// order of the sets does not matter. It returns false when a bound is
// exceeded, a metric is missing or not positive, or a run was not
// correct.
func compare(w io.Writer, benchmark string, sets []string) (bool, error) {
	var b benchmarkFile
	if err := readJSON(benchmark, &b); err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "min", "max", "apart", "bound")
	for _, wl := range b.Workloads {
		var runs []resultFile
		for _, dir := range sets {
			var r resultFile
			if err := readJSON(filepath.Join(dir, wl.Name+".trace0.json"), &r); err != nil {
				return false, err
			}
			if !r.Correct {
				fmt.Fprintf(w, "%-18s run in %s failed its checks\n", wl.Name, dir)
				ok = false
			}
			runs = append(runs, r)
		}
		for _, m := range b.EndToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, r := range runs {
				v, present := r.Metrics[m.Name]
				if !present || !(v.Value > 0) || math.IsInf(v.Value, 0) { // NaN fails v > 0
					lo = math.NaN()
					break
				}
				lo, hi = math.Min(lo, v.Value), math.Max(hi, v.Value)
			}
			if math.IsNaN(lo) {
				fmt.Fprintf(w, "%-18s %-22s missing or not a positive number in some set\n", wl.Name, m.Name)
				ok = false
				continue
			}
			apart := (hi - lo) / lo
			verdict := ""
			if apart > m.Bound {
				verdict, ok = "  EXCEEDED", false
			}
			fmt.Fprintf(w, "%-18s %-22s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", wl.Name, m.Name, lo, hi, 100*apart, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
