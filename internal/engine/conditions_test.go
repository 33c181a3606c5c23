package engine

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestConditionPrimitives(t *testing.T) {
	now := time.Date(2017, 3, 25, 14, 30, 0, 0, time.UTC)
	ing := map[string]string{"subject": "Weekly Report", "temp": "31.5"}

	cases := []struct {
		cond Condition
		want bool
	}{
		{IngredientEquals{"subject", "weekly report"}, true},
		{IngredientEquals{"subject", "other"}, false},
		{IngredientEquals{"missing", ""}, true}, // empty == empty
		{IngredientContains{"subject", "report"}, true},
		{IngredientContains{"subject", "invoice"}, false},
		{IngredientAbove{"temp", 30}, true},
		{IngredientAbove{"temp", 32}, false},
		{IngredientAbove{"subject", 0}, false}, // non-numeric
		{TimeWindow{9, 17}, true},              // 14:30 in business hours
		{TimeWindow{17, 9}, false},             // wrapped window excludes 14:30
		{TimeWindow{22, 6}, false},
	}
	for _, c := range cases {
		if got := c.cond.Allows(now, ing); got != c.want {
			t.Errorf("%s = %v, want %v", c.cond.Describe(), got, c.want)
		}
		if c.cond.Describe() == "" {
			t.Errorf("empty Describe for %#v", c.cond)
		}
	}
}

func TestTimeWindowWrapsMidnight(t *testing.T) {
	night := TimeWindow{22, 6}
	at := func(h int) time.Time {
		return time.Date(2017, 3, 25, h, 0, 0, 0, time.UTC)
	}
	for _, h := range []int{22, 23, 0, 5} {
		if !night.Allows(at(h), nil) {
			t.Errorf("hour %d should be inside [22,6)", h)
		}
	}
	for _, h := range []int{6, 12, 21} {
		if night.Allows(at(h), nil) {
			t.Errorf("hour %d should be outside [22,6)", h)
		}
	}
}

// Property: an empty condition list always allows; adding an
// always-false condition always blocks.
func TestConditionsAllowProperty(t *testing.T) {
	f := func(key, val string, hour uint8) bool {
		now := time.Date(2017, 3, 25, int(hour%24), 0, 0, 0, time.UTC)
		ing := map[string]string{key: val}
		if !conditionsAllow(nil, now, ing) {
			return false
		}
		blocked := []Condition{TimeWindow{0, 0}} // empty window
		return !conditionsAllow(blocked, now, ing)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineConditionsGateDispatch(t *testing.T) {
	// "Blink the light when email arrives, but only if the subject
	// mentions ALERT and it's business hours."
	r := newRig(t, FixedInterval{Interval: 5 * time.Second}, nil)
	r.clock.Run(func() {
		a := r.applet("cond1")
		a.Conditions = []Condition{
			IngredientContains{"subject", "alert"},
		}
		r.engine.Install(a)
		r.clock.Sleep(6 * time.Second)

		r.svc.Publish("fired", map[string]string{"subject": "newsletter"})
		r.clock.Sleep(15 * time.Second)
		r.svc.Publish("fired", map[string]string{"subject": "ALERT: disk full"})
		r.clock.Sleep(15 * time.Second)
		r.engine.Stop()
	})
	acked := r.tracesOf(TraceActionAcked)
	skipped := r.tracesOf(TraceConditionSkip)
	if len(acked) != 1 {
		t.Fatalf("acked = %d, want 1 (only the ALERT email)", len(acked))
	}
	if len(skipped) != 1 {
		t.Fatalf("condition skips = %d, want 1", len(skipped))
	}
}

// Property: expandIngredients is the identity on strings without
// placeholders, and known placeholders always resolve to their value.
func TestExpandIngredientsProperty(t *testing.T) {
	f := func(prefix, suffix, key, val string) bool {
		// Skip what the template grammar reads differently from this
		// property: placeholder delimiters inside the parts (a prefix
		// ending in "{" or a key ending in "}" moves the delimiter), and
		// keys that are not already trimmed (expansion trims them).
		if strings.Contains(prefix, "{{") || strings.Contains(suffix, "{{") ||
			strings.Contains(key, "{{") || strings.Contains(key, "}}") || key == "" ||
			strings.HasSuffix(prefix, "{") || strings.HasSuffix(key, "}") ||
			strings.TrimSpace(key) != key {
			return true
		}
		plain := prefix + suffix
		if expandIngredients(plain, map[string]string{key: val}) != plain {
			return false
		}
		tmpl := prefix + "{{" + key + "}}" + suffix
		return expandIngredients(tmpl, map[string]string{key: val}) == prefix+val+suffix
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
