package core

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/mocksite"
	"repro/internal/stats"
)

// ReportArgs are cmd/report's flags, as every section reads them.
type ReportArgs struct {
	Seed uint64
	// Quick runs each study at its Quick*Config size.
	Quick bool
	// EcoScale scales the §3 ecosystem dataset (1 = paper size).
	EcoScale float64
	// CSVDir, when set, receives the figure series of the §3 and §4
	// sections (WriteFigureCSVs).
	CSVDir string
}

// Section is one section of EXPERIMENTS.md.
type Section struct {
	// Name names the section in logs and in its golden file.
	Name string
	// Seeded is true when every number in the section comes from a
	// simulated clock and a seeded RNG; the others also read the wall
	// clock.
	Seeded bool
	// Run runs the section's study and returns its markdown.
	Run func(a ReportArgs) (string, error)
}

// Sections are the report's sections, in order.
var Sections = []Section{
	{"ecosystem", true, func(a ReportArgs) (string, error) {
		r := RunEcosystem(a.Seed, a.EcoScale)
		return FormatEco(r), WriteFigureCSVs(a.CSVDir, nil, r)
	}},
	{"crawl", false, func(a ReportArgs) (string, error) {
		ids := 10_000
		if a.Quick {
			ids = 4000
		}
		start := time.Now()
		cs, err := RunCrawlStudy(a.Seed, 0.01, ids)
		if err != nil {
			return "", err
		}
		return FormatCrawl(cs, time.Since(start)), nil
	}},
	{"performance", true, func(a ReportArgs) (string, error) {
		r, err := RunPerformance(pick(a, PerfConfig{Seed: a.Seed}, QuickPerfConfig))
		if err != nil {
			return "", err
		}
		return FormatPerf(r), WriteFigureCSVs(a.CSVDir, r, nil)
	}},
	{"t2a_breakdown", true, func(a ReportArgs) (string, error) {
		return study(a, BreakdownConfig{Seed: a.Seed}, QuickBreakdownConfig, RunT2ABreakdown, FormatBreakdown)
	}},
	{"engine_scale", false, func(a ReportArgs) (string, error) {
		return study(a, ScaleConfig{Seed: a.Seed}, QuickScaleConfig, RunEngineScale, FormatScale)
	}},
	{"ablations", true, func(a ReportArgs) (string, error) {
		return study(a, AblationConfig{Seed: a.Seed}, QuickAblationConfig, RunAblations, FormatAblations)
	}},
	{"adaptive_pareto", true, func(a ReportArgs) (string, error) {
		return study(a, ParetoConfig{Seed: a.Seed}, QuickParetoConfig, RunAdaptivePareto, FormatAdaptivePareto)
	}},
	{"chaos", true, func(a ReportArgs) (string, error) {
		return study(a, ChaosConfig{Seed: a.Seed}, QuickChaosConfig, RunChaos, FormatChaos)
	}},
	{"push_vs_poll", true, func(a ReportArgs) (string, error) {
		return study(a, PushVsPollConfig{Seed: a.Seed}, QuickPushVsPollConfig, RunPushVsPoll, FormatPushVsPoll)
	}},
	{"cluster_chaos", true, func(a ReportArgs) (string, error) {
		return study(a, ClusterChaosConfig{Seed: a.Seed}, QuickClusterChaosConfig, RunClusterChaos, FormatClusterChaos)
	}},
	{"durable_churn", false, func(a ReportArgs) (string, error) {
		return study(a, DurableChurnConfig{Seed: a.Seed}, QuickDurableChurnConfig, RunDurableChurn, FormatDurableChurn)
	}},
}

// pick is full, or the quick config for a.Seed under -quick.
func pick[C any](a ReportArgs, full C, quick func(seed uint64) C) C {
	if a.Quick {
		return quick(a.Seed)
	}
	return full
}

// study runs one study at its full or quick config and formats it.
func study[C, R any](a ReportArgs, full C, quick func(seed uint64) C, run func(C) (R, error), format func(R) string) (string, error) {
	r, err := run(pick(a, full, quick))
	if err != nil {
		return "", err
	}
	return format(r), nil
}

// CrawlStudy compares statistics computed from scraped pages against
// ground truth, validating the measurement methodology end to end.
type CrawlStudy struct {
	// Requests, NotFound: crawl effort over the enumerated ID space.
	Stats crawler.Stats
	// AppletsCrawled vs AppletsTruth must match exactly.
	AppletsCrawled, AppletsTruth int
	// Top1Crawled vs Top1Truth: the Fig 3 headline recomputed from the
	// scraped data.
	Top1Crawled, Top1Truth float64
}

// RunCrawlStudy generates a scaled dataset, serves it through the mock
// ifttt.com, crawls it over live HTTP, and compares analyses. scale
// trades fidelity for runtime (0.01 ≈ 3.2K applets, a few seconds).
func RunCrawlStudy(seed uint64, scale float64, idSpace int) (*CrawlStudy, error) {
	eco := dataset.Generate(dataset.GenConfig{Seed: seed, Scale: scale, IDSpace: idSpace})
	truth := eco.At(dataset.RefWeekIndex)
	site := mocksite.New(truth)
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()

	c := crawler.New(crawler.Config{
		BaseURL:     srv.URL,
		Doer:        srv.Client(),
		Concurrency: 32,
		IDLow:       100_000,
		IDHigh:      100_000 + idSpace,
	})
	snap, err := c.Crawl()
	if err != nil {
		return nil, err
	}
	crawled := snap.ToDataset().At(0)
	return &CrawlStudy{
		Stats:          snap.Stats,
		AppletsCrawled: len(crawled.Applets),
		AppletsTruth:   len(truth.Applets),
		Top1Crawled:    analysis.Fig3Distribution(crawled).Top1Share,
		Top1Truth:      analysis.Fig3Distribution(truth).Top1Share,
	}, nil
}

// summaryLine renders one latency distribution against the paper's
// reference values.
func summaryLine(name string, xs []float64, paper string) string {
	if len(xs) == 0 {
		return fmt.Sprintf("| %s | (no samples) | %s |\n", name, paper)
	}
	s := stats.Summarize(xs)
	return fmt.Sprintf("| %s | p25=%.0fs p50=%.0fs p75=%.0fs max=%.0fs (n=%d) | %s |\n",
		name, s.P25, s.P50, s.P75, s.Max, s.N, paper)
}

// FormatPerf renders the §4 results as the markdown section of
// EXPERIMENTS.md.
func FormatPerf(r *PerfResults) string {
	var b strings.Builder
	b.WriteString("## §4 Applet execution performance (simulated testbed)\n\n")

	b.WriteString("### Fig 4 — T2A latency, applets A1–A7\n\n")
	b.WriteString("| Applet | Measured | Paper |\n|---|---|---|\n")
	var ids []string
	for id := range r.Fig4 {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		paper := "A1–A4 group: p25/p50/p75 = 58/84/122 s, tail → 15 min"
		if id >= "A5" {
			paper = "A5–A7 group: a few seconds (realtime hints honoured for Alexa)"
		}
		b.WriteString(summaryLine(id, r.Fig4[id], paper))
	}

	b.WriteString("\n### Fig 5 — A2 under E1/E2/E3\n\n")
	b.WriteString("| Scenario | Measured | Paper |\n|---|---|---|\n")
	b.WriteString(summaryLine("E1 (our trigger service)", r.Fig5["E1"], "similar to official: polling-dominated"))
	b.WriteString(summaryLine("E2 (our trigger+action services)", r.Fig5["E2"], "similar to E1"))
	b.WriteString(summaryLine("E3 (our engine, 1 s polling)", r.Fig5["E3"], "dramatically reduced (~1–2 s)"))

	b.WriteString("\n### Table 5 — execution timeline of A2 under E2\n\n")
	b.WriteString("| t (s) | Event |\n|---|---|\n")
	for _, row := range r.Table5 {
		fmt.Fprintf(&b, "| %.2f | %s |\n", row.At.Seconds(), row.Event)
	}
	b.WriteString("\nPaper: 0 → 0.04 → 0.16 → 81.1 → 82.1 → 83.0 → 83.8 s.\n")

	b.WriteString("\n### Fig 6 — sequential execution (trigger every 5 s)\n\n")
	fmt.Fprintf(&b, "- activations: %d; actions executed: %d; dropped past the k=50 batch limit: %d\n",
		len(r.Fig6.TriggerTimes), len(r.Fig6.ActionTimes), r.Fig6.Dropped)
	fmt.Fprintf(&b, "- action clusters: %d; cluster start times (s):", len(r.Fig6.Clusters))
	for _, cl := range r.Fig6.Clusters {
		fmt.Fprintf(&b, " %.0f(%d)", cl[0], len(cl))
	}
	b.WriteString("\n- paper: clusters at ~119/247/351 s; extreme inter-cluster gap 14 min.\n")

	b.WriteString("\n### Fig 7 — concurrent applets sharing one trigger\n\n")
	diffs := make([]float64, len(r.Fig7.Diff))
	for i, d := range r.Fig7.Diff {
		diffs[i] = d.Seconds()
	}
	if len(diffs) > 0 {
		fmt.Fprintf(&b, "- T2A difference range: [%.0f s, %.0f s] over %d trials (paper: −60 to +140 s)\n",
			stats.Min(diffs), stats.Max(diffs), len(diffs))
	}

	b.WriteString("\n### Realtime API study\n\n")
	b.WriteString("| Variant | Measured | Paper |\n|---|---|---|\n")
	b.WriteString(summaryLine("without hints", r.RealtimeUnhinted, "baseline"))
	b.WriteString(summaryLine("with hints (non-allow-listed)", r.RealtimeHinted, "no performance impact — hints ignored"))

	b.WriteString("\n### Infinite loops\n\n")
	fmt.Fprintf(&b, "- explicit loop: %d executions in %s (engine performs no check)\n",
		r.ExplicitLoop.Executions, r.ExplicitLoop.Window)
	fmt.Fprintf(&b, "- implicit loop (sheet-notification coupling): %d executions in %s\n",
		r.ImplicitLoop.Executions, r.ImplicitLoop.Window)
	return b.String()
}

// FormatEco renders the §3 results as the markdown section of
// EXPERIMENTS.md.
func FormatEco(r *EcoResults) string {
	var b strings.Builder
	b.WriteString("## §3 Ecosystem and usage (calibrated synthetic dataset)\n\n")

	b.WriteString("### Table 1 — service-category breakdown\n\n")
	b.WriteString("| Category | %Services (paper) | TrigAC% (paper) | ActAC% (paper) |\n|---|---|---|---|\n")
	for i, row := range r.Table1 {
		fmt.Fprintf(&b, "| %d. %s | %.1f (%.1f) | %.1f (%.1f) | %.1f (%.1f) |\n",
			int(row.Category), row.Category,
			row.ServicePct, dataset.ServiceShares[i],
			row.TriggerACPc, dataset.TriggerACShares[i],
			row.ActionACPct, dataset.ActionACShares[i])
	}
	fmt.Fprintf(&b, "\nIoT services: %.1f%% (paper 52%%); IoT usage: %.1f%% (paper 16%%).\n",
		r.IoTSvc, r.IoTUsage)

	b.WriteString("\n### Table 2 — dataset scale\n\n")
	fmt.Fprintf(&b, "- applets %d (paper 320K), services %d (408), triggers %d (1490), actions %d (957)\n",
		r.Table2.Applets, r.Table2.Channels, r.Table2.Triggers, r.Table2.Actions)
	fmt.Fprintf(&b, "- adoptions %d (≈23–24M), contributors %d (135,544), snapshots %d (25)\n",
		r.Table2.Adoptions, r.Table2.Contributors, r.Table2.Snapshots)

	b.WriteString("\n### Table 3 — top IoT services (add count)\n\n")
	b.WriteString("| Rank | Trigger service | Adds | Action service | Adds |\n|---|---|---|---|---|\n")
	for i := 0; i < len(r.Table3.TriggerServices) && i < len(r.Table3.ActionServices); i++ {
		ts, as := r.Table3.TriggerServices[i], r.Table3.ActionServices[i]
		fmt.Fprintf(&b, "| %d | %s | %d | %s | %d |\n", i+1, ts.Name, ts.AddCount, as.Name, as.AddCount)
	}
	b.WriteString("\nPaper: Alexa 1.2M / Hue 1.2M at the top.\n")

	b.WriteString("\n### Fig 2 — trigger×action category heat map (row shares)\n\n")
	for c := dataset.Category(1); c <= dataset.NumCategories; c++ {
		fmt.Fprintf(&b, "- row %2d: %5.1f%% of mass\n", int(c), 100*r.Fig2.RowShare(c))
	}

	b.WriteString("\n### Fig 3 — add count per applet\n\n")
	fmt.Fprintf(&b, "- top 1%% of applets hold %.1f%% of adds (paper 84.1%%)\n", 100*r.Fig3.Top1Share)
	fmt.Fprintf(&b, "- top 10%% hold %.1f%% (paper 97.6%%)\n", 100*r.Fig3.Top10Share)

	b.WriteString("\n### §3.2 growth and user contribution\n\n")
	fmt.Fprintf(&b, "- growth (11/2016 → 4/2017): services %.0f%% (11%%), triggers %.0f%% (31%%), actions %.0f%% (27%%), adds %.0f%% (19%%)\n",
		r.GrowthPct[0], r.GrowthPct[1], r.GrowthPct[2], r.GrowthPct[3])
	fmt.Fprintf(&b, "- user-made applets: %.1f%% (98%%); adds on user-made: %.1f%% (86%%)\n",
		r.Users.UserMadeAppletPct, r.Users.UserMadeAddPct)
	fmt.Fprintf(&b, "- top 1%%/10%% of users contribute %.0f%%/%.0f%% of applets (paper 18%%/49%%)\n",
		100*r.Users.Top1UserAppletShare, 100*r.Users.Top10UserAppletShare)

	b.WriteString("\n### §6 permission over-privilege\n\n")
	fmt.Fprintf(&b, "- %d user-service connections; mean scopes granted %.1f vs needed %.1f\n",
		r.Perm.Connections, r.Perm.MeanGranted, r.Perm.MeanNeeded)
	fmt.Fprintf(&b, "- %.0f%% of granted scopes are never used (least-privilege violation)\n",
		100*r.Perm.ExcessRatio)
	return b.String()
}

// FormatCrawl renders the methodology-validation section.
func FormatCrawl(c *CrawlStudy, elapsed time.Duration) string {
	var b strings.Builder
	b.WriteString("## §3.1 crawl methodology validation\n\n")
	fmt.Fprintf(&b, "- %d HTTP requests (%d 404s) in %s over the enumerated ID space\n",
		c.Stats.Requests, c.Stats.NotFound, elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "- applets recovered: %d of %d\n", c.AppletsCrawled, c.AppletsTruth)
	fmt.Fprintf(&b, "- Fig 3 top-1%% share from scraped pages: %.4f vs ground truth %.4f\n",
		c.Top1Crawled, c.Top1Truth)
	return b.String()
}
