package engine

import (
	"strconv"
	"strings"
	"time"
)

// Conditions implement the feature the paper's conclusion flags as
// future work: "We plan to study future IFTTT features such as queries
// and conditions." A condition is evaluated between the trigger event
// and the action dispatch; the action runs only when every condition on
// the applet passes. This mirrors the filter step IFTTT later shipped.
//
// Conditions are part of the Applet definition; an applet with no
// conditions behaves exactly as before.

// Condition gates an applet execution.
type Condition interface {
	// Allows reports whether the action should run for an event with
	// these ingredients, dispatched at now: the instant the engine
	// evaluates the filter, not the event's own timestamp.
	Allows(now time.Time, ingredients Ingredients) bool
	// Describe returns a short human-readable form for logs.
	Describe() string
}

// IngredientEquals passes when the named ingredient equals Value
// (case-insensitive).
type IngredientEquals struct {
	Key, Value string
}

// Allows implements Condition.
func (c IngredientEquals) Allows(_ time.Time, ing Ingredients) bool {
	return strings.EqualFold(ing.Get(c.Key), c.Value)
}

// Describe implements Condition.
func (c IngredientEquals) Describe() string { return c.Key + " == " + c.Value }

// IngredientContains passes when the named ingredient contains Substr
// (case-insensitive).
type IngredientContains struct {
	Key, Substr string
}

// Allows implements Condition.
func (c IngredientContains) Allows(_ time.Time, ing Ingredients) bool {
	return strings.Contains(strings.ToLower(ing.Get(c.Key)), strings.ToLower(c.Substr))
}

// Describe implements Condition.
func (c IngredientContains) Describe() string { return c.Key + " contains " + c.Substr }

// IngredientAbove passes when the named ingredient parses as a number
// strictly greater than Threshold.
type IngredientAbove struct {
	Key       string
	Threshold float64
}

// Allows implements Condition.
func (c IngredientAbove) Allows(_ time.Time, ing Ingredients) bool {
	v, err := strconv.ParseFloat(ing.Get(c.Key), 64)
	return err == nil && v > c.Threshold
}

// Describe implements Condition.
func (c IngredientAbove) Describe() string {
	return c.Key + " > " + strconv.FormatFloat(c.Threshold, 'g', -1, 64)
}

// TimeWindow passes when the hour of the dispatch instant lies within
// [FromHour, ToHour) in UTC — when the filter runs, as with IFTTT's
// filter time, not when the event happened. Windows may wrap midnight
// (From 22, To 6).
type TimeWindow struct {
	FromHour, ToHour int
}

// Allows implements Condition.
func (c TimeWindow) Allows(now time.Time, _ Ingredients) bool {
	h := now.UTC().Hour()
	if c.FromHour <= c.ToHour {
		return h >= c.FromHour && h < c.ToHour
	}
	return h >= c.FromHour || h < c.ToHour
}

// Describe implements Condition.
func (c TimeWindow) Describe() string {
	return "hour in [" + strconv.Itoa(c.FromHour) + "," + strconv.Itoa(c.ToHour) + ")"
}

// conditionsAllow evaluates all conditions; an empty list always passes.
func conditionsAllow(conds []Condition, now time.Time, ingredients Ingredients) bool {
	for _, c := range conds {
		if !c.Allows(now, ingredients) {
			return false
		}
	}
	return true
}

// Ingredients is a read-only view of one trigger event's ingredients,
// valid for the call it is handed to: the decoded values its execution
// copied into pooled scratch — out of the poll response, or out of the
// subscription's mailbox for a pushed event — which the next execution
// reuses.
type Ingredients struct {
	fields []ingredient // in the order they were recorded
	vals   []byte       // what fields' value ranges index
}

// ingredient is one ingredient of a recorded event: its key (interned by
// the scanner, or the pushing caller's own string), and where its value
// sits in the arena's bytes.
type ingredient struct {
	key    string
	lo, hi int32
}

// Get returns the value of the ingredient named key: "" when the event
// has none or it was null, the raw JSON text of a non-string value.
// Kept small enough to inline, so a short value read by a condition is
// converted on the caller's stack.
func (in Ingredients) Get(key string) string {
	return string(in.value(key))
}

// value returns the event's value for key, nil when absent. A key
// repeated in the event resolves to its last occurrence, as it did when
// the event was decoded into a map.
func (in Ingredients) value(key string) []byte {
	for i := len(in.fields) - 1; i >= 0; i-- {
		if f := &in.fields[i]; f.key == key {
			return in.vals[f.lo:f.hi]
		}
	}
	return nil
}

// appendValue appends key's value to dst.
func (in Ingredients) appendValue(dst []byte, key string) []byte {
	return append(dst, in.value(key)...)
}
