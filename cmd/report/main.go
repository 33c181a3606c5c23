// Command report runs the full reproduction — every §3 analysis at paper
// scale, every §4 experiment at the paper's trial counts, and the crawl
// methodology validation — and writes the paper-vs-measured record to
// EXPERIMENTS.md (or the path given by -out).
//
//	report -out EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// recordedMarker opens the hand-recorded tail of the report: benchmark
// rows measured with bench/, which a report run keeps rather than
// regenerates.
const recordedMarker = "<!-- recorded benchmark results: kept verbatim by cmd/report -->"

func main() {
	var (
		out      = flag.String("out", "EXPERIMENTS.md", "output markdown path")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		ecoScale = flag.Float64("scale", 1.0, "ecosystem dataset scale")
		quick    = flag.Bool("quick", false, "reduced trial counts for a fast smoke run")
		csvDir   = flag.String("csv", "", "when set, write plot-ready figure series (CSV) into this directory")
		logFlags = obs.BindLogFlags(flag.CommandLine)
	)
	flag.Parse()
	log := logFlags.New()

	perfCfg := core.PerfConfig{Seed: *seed}
	crawlScale, crawlIDs := 0.01, 10_000
	if *quick {
		perfCfg.Fig4Trials, perfCfg.Fig5Trials, perfCfg.Fig7Trials = 5, 5, 5
		perfCfg.SeqTriggers = 20
		perfCfg.LoopWindow = 20 * time.Minute
		crawlIDs = 4000
	}

	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	b.WriteString("Generated by `cmd/report`. Every table and figure of the paper's\n")
	b.WriteString("evaluation, reproduced on the simulated substrate described in\n")
	b.WriteString("DESIGN.md. Absolute numbers come from the calibrated models; the\n")
	b.WriteString("comparisons in parentheses are the paper's published values.\n\n")
	fmt.Fprintf(&b, "- seed %d, ecosystem scale %.2f, quick=%v, generated %s\n\n",
		*seed, *ecoScale, *quick, time.Now().UTC().Format(time.RFC3339))

	log.Info("running §3 ecosystem analysis", "scale", *ecoScale)
	eco := core.RunEcosystem(*seed, *ecoScale)
	b.WriteString(core.FormatEco(eco))
	b.WriteString("\n")

	log.Info("running §3.1 crawl validation")
	crawlStart := time.Now()
	cs, err := core.RunCrawlStudy(*seed, crawlScale, crawlIDs)
	if err != nil {
		log.Error("crawl study", "err", err)
		os.Exit(1)
	}
	b.WriteString(core.FormatCrawl(cs, time.Since(crawlStart)))
	b.WriteString("\n")

	log.Info("running §4 performance experiments")
	perf, err := core.RunPerformance(perfCfg)
	if err != nil {
		log.Error("performance", "err", err)
		os.Exit(1)
	}
	b.WriteString(core.FormatPerf(perf))
	b.WriteString("\n")

	log.Info("running span-based T2A breakdown")
	bdCfg := core.BreakdownConfig{Seed: *seed}
	if *quick {
		bdCfg.Trials = 5
	}
	bd, err := core.RunT2ABreakdown(bdCfg)
	if err != nil {
		log.Error("t2a breakdown", "err", err)
		os.Exit(1)
	}
	b.WriteString(core.FormatBreakdown(bd))
	b.WriteString("\n")

	log.Info("running engine scale study")
	scaleCfg := core.ScaleConfig{Seed: *seed}
	if *quick {
		scaleCfg.Applets = 20_000
		scaleCfg.Virtual = 6 * time.Minute
	}
	b.WriteString(core.FormatScale(core.RunEngineScale(scaleCfg)))
	b.WriteString("\n")

	log.Info("running §6 ablations")
	ablTrials := 10
	if *quick {
		ablTrials = 4
	}
	abl, err := core.RunAblations(core.AblationConfig{Seed: *seed, Trials: ablTrials})
	if err != nil {
		log.Error("ablations", "err", err)
		os.Exit(1)
	}
	b.WriteString(core.FormatAblations(abl))
	b.WriteString("\n")

	log.Info("running adaptive-polling Pareto study")
	paretoCfg := core.ParetoConfig{Seed: *seed}
	if *quick {
		paretoCfg.Subs = 200
		paretoCfg.Hot = 4
		paretoCfg.Budgets = []float64{1, 4}
		paretoCfg.Horizon = time.Hour
	}
	pareto, err := core.RunAdaptivePareto(paretoCfg)
	if err != nil {
		log.Error("adaptive pareto", "err", err)
		os.Exit(1)
	}
	b.WriteString(core.FormatAdaptivePareto(pareto))
	b.WriteString("\n")

	log.Info("running chaos / fault-injection study")
	chaosCfg := core.ChaosConfig{Seed: *seed}
	if *quick {
		chaosCfg.Trials = 5
		chaosCfg.Applets = 40
	}
	chaos, err := core.RunChaos(chaosCfg)
	if err != nil {
		log.Error("chaos", "err", err)
		os.Exit(1)
	}
	b.WriteString(core.FormatChaos(chaos))
	b.WriteString("\n")

	log.Info("running push-vs-poll study")
	pushCfg := core.PushVsPollConfig{Seed: *seed}
	if *quick {
		pushCfg = core.QuickPushVsPollConfig(*seed)
	}
	pushRes, err := core.RunPushVsPoll(pushCfg)
	if err != nil {
		log.Error("push vs poll", "err", err)
		os.Exit(1)
	}
	b.WriteString(core.FormatPushVsPoll(pushRes))
	b.WriteString("\n")

	log.Info("running cluster kill-and-rebalance study")
	clusterCfg := core.ClusterChaosConfig{Seed: *seed}
	if *quick {
		clusterCfg = core.QuickClusterChaosConfig(*seed)
	}
	clusterRes, err := core.RunClusterChaos(clusterCfg)
	if err != nil {
		log.Error("cluster chaos", "err", err)
		os.Exit(1)
	}
	b.WriteString(core.FormatClusterChaos(clusterRes))
	b.WriteString("\n")

	log.Info("running durability crash-recovery study")
	durCfg := core.DurableChurnConfig{Seed: *seed}
	if *quick {
		durCfg = core.QuickDurableChurnConfig(*seed)
	}
	durRes, err := core.RunDurableChurn(durCfg)
	if err != nil {
		log.Error("durable churn", "err", err)
		os.Exit(1)
	}
	b.WriteString(core.FormatDurableChurn(durRes))

	// Results recorded from bench/ runs cannot be regenerated here (the
	// benchmark is its own module and its numbers are a box's, not a
	// seed's): everything from the marker on is carried over verbatim.
	if old, err := os.ReadFile(*out); err == nil {
		if i := strings.Index(string(old), recordedMarker); i >= 0 {
			b.WriteString("\n")
			b.WriteString(string(old[i:]))
		}
	}

	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		log.Error("write", "err", err)
		os.Exit(1)
	}
	log.Info("report written", "path", *out)

	if *csvDir != "" {
		if err := core.WriteFigureCSVs(*csvDir, perf, eco); err != nil {
			log.Error("csv", "err", err)
			os.Exit(1)
		}
		log.Info("figure series written", "dir", *csvDir)
	}
}
