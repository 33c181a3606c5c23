package core

import (
	"strings"
	"testing"
	"time"
)

// TestRunT2ABreakdownSmall runs the span-based decomposition with few
// trials and checks the paper's Fig 5 structure: for the polled applet
// the polling gap dominates T2A, while the realtime applet's gap is
// seconds; the segments must add up to the span total.
func TestRunT2ABreakdownSmall(t *testing.T) {
	r, err := RunT2ABreakdown(BreakdownConfig{Seed: 3, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}
	polled, realtime := r.Rows[0], r.Rows[1]

	if polled.Spans < 4 {
		t.Errorf("polled spans = %d, want >= trials", polled.Spans)
	}
	// Every executed action completes its span: none is lost.
	for _, row := range r.Rows {
		if row.Spans != row.Acked {
			t.Errorf("%s: %d spans for %d acked actions", row.ID, row.Spans, row.Acked)
		}
	}
	// Paper's conclusion: the polling gap dominates (Fig 4 medians are
	// ~84 s against seconds for everything else).
	if share := polled.PollingGap.Mean / polled.T2A.Mean; share < 0.5 {
		t.Errorf("polled polling-gap share = %.2f, want > 0.5 (gap dominance)", share)
	}
	if polled.T2A.P50 < 30 {
		t.Errorf("polled T2A p50 = %.1fs, want polling-scale latency", polled.T2A.P50)
	}
	// The realtime (Alexa) applet's gap collapses to hint-delay scale.
	if realtime.Spans == 0 {
		t.Fatal("realtime scenario produced no spans")
	}
	if realtime.PollingGap.Mean > 10 {
		t.Errorf("realtime polling gap mean = %.1fs, want seconds", realtime.PollingGap.Mean)
	}
	if realtime.HintLag.N == 0 {
		t.Error("realtime spans carry no hint provenance")
	}
	// Segment sums must track total T2A (EventAt is unix-second
	// granularity, so allow 2s of slack).
	for _, row := range r.Rows {
		total := time.Duration(row.T2A.Mean * float64(time.Second))
		if diff := (row.segTotal() - total).Abs(); diff > 2*time.Second {
			t.Errorf("%s: segment sum %v vs T2A mean %v (diff %v)", row.ID, row.segTotal(), total, diff)
		}
	}

	out := FormatBreakdown(r)
	for _, want := range []string{"polling gap", "share of mean T2A", "Conclusion", "A5 realtime"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown report missing %q", want)
		}
	}
}
