package scenario

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestRegistryEntriesArmOrCheck pins the one-row-per-action contract:
// a fault entry arms an injector and an assertion entry checks the
// outcome, never both and never neither, and every entry declares the
// event fields it takes, each one a real Event field named in the
// entry's params text ("-" for an action that takes none).
func TestRegistryEntriesArmOrCheck(t *testing.T) {
	known := map[string]bool{}
	et := reflect.TypeOf(Event{})
	for j := 0; j < et.NumField(); j++ {
		name, _, _ := strings.Cut(et.Field(j).Tag.Get("json"), ",")
		known[name] = true
	}
	for name, a := range registry {
		if a.name != name {
			t.Errorf("registry key %s names entry %s", name, a.name)
		}
		if (a.arm == nil) == (a.check == nil) {
			t.Errorf("%s: has arm=%v and check=%v, want exactly one", name, a.arm != nil, a.check != nil)
		}
		if (a.check != nil) != strings.HasPrefix(name, "assert.") {
			t.Errorf("%s: check functions belong to assert.* entries only", name)
		}
		words := strings.FieldsFunc(a.params, func(r rune) bool { return r != '_' && (r < 'a' || r > 'z') })
		for _, f := range a.fields {
			if !known[f] || f == "at" || f == "action" {
				t.Errorf("%s: declares %q, which is not an optional Event field", name, f)
			}
			if !slices.Contains(words, f) {
				t.Errorf("%s: takes %q but its params %q do not document it", name, f, a.params)
			}
		}
		if len(a.fields) != len(dedupe(a.fields)) {
			t.Errorf("%s: declares a field twice: %v", name, a.fields)
		}
		if (len(a.fields) == 0) != (a.params == "-") {
			t.Errorf("%s: fields %v but params %q", name, a.fields, a.params)
		}
	}
}

func dedupe(s []string) []string {
	out := slices.Clone(s)
	slices.Sort(out)
	return slices.Compact(out)
}

// TestParseRejectsFieldsTheActionDoesNotTake: the loader enforces
// Event's documented contract that an event sets only the fields its
// action takes, reporting the first offending field in declaration
// order.
func TestParseRejectsFieldsTheActionDoesNotTake(t *testing.T) {
	const doc = `{"name": "fields", "mode": "campaign",
  "campaign": {"workload": "scenario-tiny", "machine": "2s", "events": ["CPU_CLK_UNHALTED.THREAD"]},
  "events": [%s]}`
	cases := []struct {
		event, field, msg string
	}{
		{`{"action":"run.hang","cell":"p0/r0/b0","frac":0.5,"seq":3,"window":"torn"}`,
			"events[0].frac", "run.hang takes no frac"},
		{`{"action":"assert.complete","min":1}`, "events[0].min", "assert.complete takes no min"},
		{`{"action":"run.exit","cell":"p0/r0/b0","exit_code":3,"nan":true}`, "events[0].nan", "run.exit takes no nan"},
		{`{"action":"data.flatten_series","event":"NO_SUCH_COUNTER"}`, "events[0].event", `unknown counter "NO_SUCH_COUNTER"`},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(strings.Replace(doc, "%s", tc.event, 1)))
		var se *SpecError
		if !errors.As(err, &se) || se.Field != tc.field || se.Msg != tc.msg {
			t.Errorf("%s: err = %v, want SpecError %s: %s", tc.event, err, tc.field, tc.msg)
		}
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: %v does not unwrap to ErrInvalid", tc.event, err)
		}
	}
	// The at and action fields are always allowed, as is every field
	// the action takes.
	ok := `{"at":"1s","action":"run.exit","cell":"p0/r0/b0","exit_code":3,"times":1,"delay":"1ms"}`
	if _, err := Parse([]byte(strings.Replace(doc, "%s", ok, 1))); err != nil {
		t.Errorf("valid run.exit rejected: %v", err)
	}
}
