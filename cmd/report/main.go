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

	args := core.ReportArgs{Seed: *seed, Quick: *quick, EcoScale: *ecoScale, CSVDir: *csvDir}

	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	b.WriteString("Generated by `cmd/report`. Every table and figure of the paper's\n")
	b.WriteString("evaluation, reproduced on the simulated substrate described in\n")
	b.WriteString("DESIGN.md. Absolute numbers come from the calibrated models; the\n")
	b.WriteString("comparisons in parentheses are the paper's published values.\n\n")
	fmt.Fprintf(&b, "- seed %d, ecosystem scale %.2f, quick=%v, generated %s\n\n",
		*seed, *ecoScale, *quick, time.Now().UTC().Format(time.RFC3339))

	var sections []string
	for _, sec := range core.Sections {
		log.Info("running section", "name", sec.Name)
		md, err := sec.Run(args)
		if err != nil {
			log.Error(sec.Name, "err", err)
			os.Exit(1)
		}
		sections = append(sections, md)
	}
	// Results recorded from bench/ runs cannot be regenerated here (the
	// benchmark is its own module and its numbers are a box's, not a
	// seed's): everything from the marker on is carried over verbatim.
	if old, err := os.ReadFile(*out); err == nil {
		if i := strings.Index(string(old), recordedMarker); i >= 0 {
			sections = append(sections, string(old[i:]))
		}
	}
	b.WriteString(strings.Join(sections, "\n"))

	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		log.Error("write", "err", err)
		os.Exit(1)
	}
	log.Info("report written", "path", *out)
	if *csvDir != "" {
		log.Info("figure series written", "dir", *csvDir)
	}
}
