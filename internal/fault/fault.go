// Package fault is the trigger-and-ledger core under the scripted
// injectors. A Plan holds rules that say where a fault fires — a point
// (an operation class or seam callback), an optional target, a window
// of occurrence ordinals or caller coordinates, and a fire budget —
// plus a ledger of how often each point occurred and fired. The
// injector packages (faultdisk, faultrun, faultperf, faultfleet) are
// thin adapters over it: each builder method adds one rule, and each
// seam callback asks the plan which rules are due and applies the
// layer's effect.
package fault

import (
	"slices"
	"sync"
)

// Rule is one scripted fault. It is due at Point when the occurrence's
// target equals Target (an empty Target matches every target) and its
// coordinate lies in the half-open window [From, To) (To == 0 leaves
// the window unbounded above). Times caps how often the rule fires
// (0 = no cap). Do is the payload the adapter acts on.
type Rule[T any] struct {
	Point  string
	Target string
	From   uint64
	To     uint64
	Times  int
	Do     T
}

func (r *Rule[T]) matches(target string, c uint64) bool {
	return (r.Target == "" || r.Target == target) && c >= r.From && (r.To == 0 || c < r.To)
}

// point is one point's rules, their fire counts and its ledger line.
type point[T any] struct {
	name        string
	rules       []Rule[T]
	fires       []int // per rule
	seen, fired int
}

// Plan is a set of rules and the ledger of their firing. The zero Plan
// has no rules and is ready to use; all methods are safe for concurrent
// use.
type Plan[T any] struct {
	mu      sync.Mutex
	points  []*point[T]          // in first-use order; plans use a handful
	ordinal map[[2]string]uint64 // Next's occurrence count per (point, target)
}

// point returns the named point, adding it on first use. Caller holds
// p.mu.
func (p *Plan[T]) point(name string) *point[T] {
	for _, pt := range p.points {
		if pt.name == name {
			return pt
		}
	}
	pt := &point[T]{name: name}
	p.points = append(p.points, pt)
	return pt
}

// Add schedules a rule.
func (p *Plan[T]) Add(r Rule[T]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pt := p.point(r.Point)
	pt.rules = append(pt.rules, r)
	pt.fires = append(pt.fires, 0)
}

// Next counts one occurrence of (point, target) and returns the
// payloads of the rules due at its 1-based ordinal, in the order they
// were added.
func (p *Plan[T]) Next(point, target string) []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ordinal == nil {
		p.ordinal = make(map[[2]string]uint64)
	}
	k := [2]string{point, target}
	p.ordinal[k]++
	return p.fire(point, target, p.ordinal[k])
}

// At counts one occurrence of (point, target) at a coordinate the
// caller already has — a cycle, a sequence number, a dial attempt or a
// cell index — and returns the payloads of the rules due there, in the
// order they were added.
func (p *Plan[T]) At(point, target string, c uint64) []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fire(point, target, c)
}

// fire charges every due rule one fire and records the occurrence.
// Caller holds p.mu.
func (p *Plan[T]) fire(name, target string, c uint64) []T {
	pt := p.point(name)
	pt.seen++
	var due []T
	for i := range pt.rules {
		r := &pt.rules[i]
		if r.matches(target, c) && (r.Times == 0 || pt.fires[i] < r.Times) {
			pt.fires[i]++
			due = append(due, r.Do)
		}
	}
	if len(due) > 0 {
		pt.fired++
	}
	return due
}

// Seen returns how many occurrences the named points had, or all
// points together when none are named.
func (p *Plan[T]) Seen(points ...string) int {
	return p.count(points, func(pt *point[T]) int { return pt.seen })
}

// Fired returns how many occurrences at the named points (all points
// when none are named) had at least one rule due.
func (p *Plan[T]) Fired(points ...string) int {
	return p.count(points, func(pt *point[T]) int { return pt.fired })
}

func (p *Plan[T]) count(names []string, field func(*point[T]) int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, pt := range p.points {
		if len(names) == 0 || slices.Contains(names, pt.name) {
			n += field(pt)
		}
	}
	return n
}
