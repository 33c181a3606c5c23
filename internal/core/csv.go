package core

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/stats"
)

// WriteFigureCSVs dumps the plot-ready series behind every figure into
// dir, one file per curve, so the paper's plots can be regenerated with
// any plotting tool:
//
//	fig4_<applet>.csv    — T2A CDF (latency_s, cdf)
//	fig5_<scenario>.csv  — T2A CDF per E-scenario
//	fig6_actions.csv     — action arrival times (t_s)
//	fig7_diff.csv        — T2A difference CDF
//	fig3_addcounts.csv   — rank vs add count (from eco when non-nil)
//	fig2_heatmap.csv     — trigger×action category add-count matrix
//
// An empty dir writes nothing; a nil perf or eco skips its files.
func WriteFigureCSVs(dir string, perf *PerfResults, eco *EcoResults) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("csv: mkdir: %w", err)
	}

	if perf != nil {
		for id, xs := range perf.Fig4 {
			if err := writeCDF(filepath.Join(dir, "fig4_"+id+".csv"), "latency_s", xs); err != nil {
				return err
			}
		}
		for sc, xs := range perf.Fig5 {
			if err := writeCDF(filepath.Join(dir, "fig5_"+sc+".csv"), "latency_s", xs); err != nil {
				return err
			}
		}
		if err := writeSeries(filepath.Join(dir, "fig6_actions.csv"),
			[]string{"t_s"}, oneCol(perf.Fig6.ActionTimes)); err != nil {
			return err
		}
		if err := writeSeries(filepath.Join(dir, "fig6_triggers.csv"),
			[]string{"t_s"}, oneCol(perf.Fig6.TriggerTimes)); err != nil {
			return err
		}
		diffs := make([]float64, len(perf.Fig7.Diff))
		for i, d := range perf.Fig7.Diff {
			diffs[i] = d.Seconds()
		}
		if err := writeCDF(filepath.Join(dir, "fig7_diff.csv"), "diff_s", diffs); err != nil {
			return err
		}
	}

	if eco != nil {
		// Fig 3: rank vs add count, log-log curve.
		rows := make([][]string, 0, len(eco.Fig3.Counts))
		for i, c := range eco.Fig3.Counts {
			// Thin the tail: keep every point in the head, sample the
			// rest so the file stays plottable.
			if i > 1000 && i%100 != 0 {
				continue
			}
			rows = append(rows, []string{strconv.Itoa(i + 1), strconv.FormatInt(c, 10)})
		}
		if err := writeSeries(filepath.Join(dir, "fig3_addcounts.csv"),
			[]string{"rank", "add_count"}, rows); err != nil {
			return err
		}

		// Fig 2: the full matrix.
		var hm [][]string
		for t := 1; t < len(eco.Fig2); t++ {
			for a := 1; a < len(eco.Fig2[t]); a++ {
				hm = append(hm, []string{
					strconv.Itoa(t), strconv.Itoa(a),
					strconv.FormatInt(eco.Fig2[t][a], 10),
				})
			}
		}
		if err := writeSeries(filepath.Join(dir, "fig2_heatmap.csv"),
			[]string{"trigger_cat", "action_cat", "add_count"}, hm); err != nil {
			return err
		}
	}
	return nil
}

func oneCol(xs []float64) [][]string {
	rows := make([][]string, len(xs))
	for i, x := range xs {
		rows[i] = []string{strconv.FormatFloat(x, 'f', 3, 64)}
	}
	return rows
}

// writeCDF writes the empirical CDF of xs as (value, cdf) rows.
func writeCDF(path, valueHeader string, xs []float64) error {
	pts := stats.CDF(xs)
	rows := make([][]string, len(pts))
	for i, p := range pts {
		rows[i] = []string{
			strconv.FormatFloat(p.X, 'f', 3, 64),
			strconv.FormatFloat(p.P, 'f', 5, 64),
		}
	}
	return writeSeries(path, []string{valueHeader, "cdf"}, rows)
}

func writeSeries(path string, header []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("csv: create %s: %w", path, err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	return w.WriteAll(rows)
}
