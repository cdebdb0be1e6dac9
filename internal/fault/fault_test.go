package fault

import (
	"reflect"
	"sync"
	"testing"
)

func TestRuleMatching(t *testing.T) {
	cases := []struct {
		name   string
		rule   Rule[string]
		target string
		c      uint64
		want   bool
	}{
		{"inside window", Rule[string]{Point: "p", From: 3, To: 5}, "", 4, true},
		{"From is inclusive", Rule[string]{Point: "p", From: 3, To: 5}, "", 3, true},
		{"To is exclusive", Rule[string]{Point: "p", From: 3, To: 5}, "", 5, false},
		{"before window", Rule[string]{Point: "p", From: 3, To: 5}, "", 2, false},
		{"To zero is unbounded", Rule[string]{Point: "p", From: 3}, "", 1 << 62, true},
		{"zero window matches everything", Rule[string]{Point: "p"}, "x", 0, true},
		{"other point", Rule[string]{Point: "q"}, "", 0, false},
		{"empty target matches any", Rule[string]{Point: "p"}, "cell-7", 0, true},
		{"target must match", Rule[string]{Point: "p", Target: "a"}, "b", 0, false},
		{"target matches", Rule[string]{Point: "p", Target: "a"}, "a", 0, true},
		{"targeted rule skips untargeted call", Rule[string]{Point: "p", Target: "a"}, "", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p Plan[string]
			tc.rule.Do = "hit"
			p.Add(tc.rule)
			got := len(p.At("p", tc.target, tc.c)) == 1
			if got != tc.want {
				t.Errorf("At(p, %q, %d) due = %v, want %v", tc.target, tc.c, got, tc.want)
			}
		})
	}
}

func TestTimesCapsFires(t *testing.T) {
	var p Plan[int]
	p.Add(Rule[int]{Point: "p", Times: 2, Do: 1})
	p.Add(Rule[int]{Point: "p", Do: 2})
	var got [][]int
	for i := 0; i < 4; i++ {
		got = append(got, p.Next("p", ""))
	}
	want := [][]int{{1, 2}, {1, 2}, {2}, {2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fires = %v, want %v (Times-capped rule first, in Add order)", got, want)
	}
}

func TestNextCountsOrdinalsPerTarget(t *testing.T) {
	var p Plan[string]
	p.Add(Rule[string]{Point: "write", From: 2, To: 3, Do: "second write"})
	p.Add(Rule[string]{Point: "run", Target: "b", From: 2, To: 3, Do: "b's second run"})

	if due := p.Next("write", ""); len(due) != 0 {
		t.Fatalf("first write fired %v", due)
	}
	// At never advances Next's ordinal.
	p.At("write", "", 2)
	if due := p.Next("write", ""); !reflect.DeepEqual(due, []string{"second write"}) {
		t.Fatalf("second write: %v", due)
	}
	if due := p.Next("write", ""); len(due) != 0 {
		t.Fatalf("third write fired %v", due)
	}

	// Ordinals count per (point, target).
	p.Next("run", "a")
	p.Next("run", "a")
	if due := p.Next("run", "b"); len(due) != 0 {
		t.Fatalf("b's first run fired %v", due)
	}
	if due := p.Next("run", "b"); !reflect.DeepEqual(due, []string{"b's second run"}) {
		t.Fatalf("b's second run: %v", due)
	}
}

func TestAtMatchesCallerCoordinate(t *testing.T) {
	var p Plan[uint64]
	p.Add(Rule[uint64]{Point: "cycle", From: 100, To: 200, Do: 200})
	for _, tc := range []struct {
		c    uint64
		want int
	}{{99, 0}, {150, 1}, {150, 1}, {10, 0}, {199, 1}, {200, 0}} {
		if got := len(p.At("cycle", "", tc.c)); got != tc.want {
			t.Errorf("At(cycle %d) fired %d rules, want %d", tc.c, got, tc.want)
		}
	}
}

func TestLedger(t *testing.T) {
	var p Plan[int]
	p.Add(Rule[int]{Point: "a", From: 1, To: 3})
	p.Add(Rule[int]{Point: "a", From: 2, To: 3}) // overlaps: one fire per occurrence
	p.Add(Rule[int]{Point: "b", Times: 1})
	for i := 0; i < 4; i++ {
		p.Next("a", "")
	}
	p.At("b", "", 0)
	p.At("b", "", 0)
	p.At("c", "", 0)

	for _, tc := range []struct {
		name      string
		got, want int
	}{
		{"Seen(a)", p.Seen("a"), 4},
		{"Fired(a)", p.Fired("a"), 2},
		{"Seen(b)", p.Seen("b"), 2},
		{"Fired(b)", p.Fired("b"), 1},
		{"Seen(c)", p.Seen("c"), 1},
		{"Fired(c)", p.Fired("c"), 0},
		{"Seen(a, b)", p.Seen("a", "b"), 6},
		{"Fired(a, b)", p.Fired("a", "b"), 3},
		{"Seen()", p.Seen(), 7},
		{"Fired()", p.Fired(), 3},
		{"Seen(unknown)", p.Seen("zzz"), 0},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

func TestZeroPlan(t *testing.T) {
	var p Plan[string]
	if due := p.Next("p", "t"); due != nil {
		t.Errorf("zero plan Next = %v", due)
	}
	if due := p.At("p", "t", 7); due != nil {
		t.Errorf("zero plan At = %v", due)
	}
	if p.Fired() != 0 || p.Seen() != 2 || p.Seen("p") != 2 {
		t.Errorf("zero plan ledger: fired %d, seen %d", p.Fired(), p.Seen())
	}
	var q Plan[string]
	if q.Fired("p") != 0 || q.Seen() != 0 {
		t.Error("untouched plan reports occurrences")
	}
}

// TestConcurrentUse hammers one plan from many goroutines; under -race
// it proves the ledger and fire budgets are lock-protected, and the
// counts prove no occurrence or fire is lost.
func TestConcurrentUse(t *testing.T) {
	const workers, each = 8, 200
	var p Plan[int]
	p.Add(Rule[int]{Point: "next", Times: 50, Do: 1})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if w%2 == 0 {
					p.Next("next", "")
				} else {
					p.At("at", "", uint64(i))
				}
				if i%50 == 0 {
					p.Add(Rule[int]{Point: "at", From: 1 << 40})
					_ = p.Fired()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := p.Seen("next"); got != workers/2*each {
		t.Errorf("Seen(next) = %d, want %d", got, workers/2*each)
	}
	if got := p.Fired("next"); got != 50 {
		t.Errorf("Fired(next) = %d, want the Times cap 50", got)
	}
	if got := p.Fired("at"); got != 0 {
		t.Errorf("Fired(at) = %d, want 0", got)
	}
}
