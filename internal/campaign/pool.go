package campaign

import "sync"

// Pool runs a list of items on a fixed number of worker goroutines and
// hands their outcomes back in item order. Every item belongs to a
// group; a campaign's cells are grouped by sweep point, and training
// gives each parameter value a group of its own. A free worker takes its
// next item by one rule, whatever the worker count:
//
//  1. the lowest pending item of a group that has already returned an
//     item, else
//  2. the lowest pending item of a group no worker has started, else
//  3. the lowest pending item.
//
// So one worker takes the items in order, several start different
// groups at once, and a group whose first item has returned (a sweep
// point that has been simulated) is run out before a new group starts,
// so its outcomes are ready as soon as the consumer reaches them. Items
// of one group are always taken in order.
type Pool[T any] struct {
	mu                sync.Mutex
	groups            []int
	taken             []bool
	started, returned map[int]bool
	stopped           bool

	out  []chan poolOutcome[T]
	next int // the consumer's next item
}

type poolOutcome[T any] struct {
	val T
	err error
}

// NewPool starts up to workers goroutines (at least one, at most one
// per item) running do on items 0 to len(groups)-1, where groups[i] is
// item i's group. A panic in do is that item's error, a *PanicError.
func NewPool[T any](groups []int, workers int, do func(item int) (T, error)) *Pool[T] {
	p := &Pool[T]{
		groups:   groups,
		taken:    make([]bool, len(groups)),
		started:  make(map[int]bool),
		returned: make(map[int]bool),
		out:      make([]chan poolOutcome[T], len(groups)),
	}
	for i := range p.out {
		// One slot per item: a worker never waits for the consumer, so
		// items still running when the consumer stops finish and exit.
		p.out[i] = make(chan poolOutcome[T], 1)
	}
	for w := min(max(workers, 1), len(groups)); w > 0; w-- {
		go p.work(do)
	}
	return p
}

// Next waits for the outcome of the next item in item order and returns
// it. Call it at most once per item.
func (p *Pool[T]) Next() (T, error) {
	o := <-p.out[p.next]
	p.next++
	return o.val, o.err
}

// Stop starts no further item. Items already running finish on their
// own and their outcomes are dropped; Stop does not wait for them, so a
// consumer that stops at one item's failure is not held up by another
// item (a campaign cell may run until its timeout).
func (p *Pool[T]) Stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
}

func (p *Pool[T]) work(do func(int) (T, error)) {
	for {
		i, ok := p.take()
		if !ok {
			return
		}
		val, err := runItem(i, do)
		p.mu.Lock()
		p.returned[p.groups[i]] = true
		p.mu.Unlock()
		p.out[i] <- poolOutcome[T]{val: val, err: err}
	}
}

// take picks a free worker's next item by the rule above, or reports
// that none is left to start.
func (p *Pool[T]) take() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pick, rule := -1, 3
	for i := 0; i < len(p.groups) && rule > 1; i++ {
		switch g := p.groups[i]; {
		case p.taken[i]:
		case p.returned[g]:
			pick, rule = i, 1
		case !p.started[g] && rule > 2:
			pick, rule = i, 2
		case pick < 0:
			pick = i
		}
	}
	if p.stopped || pick < 0 {
		return 0, false
	}
	p.taken[pick] = true
	p.started[p.groups[pick]] = true
	return pick, true
}

// runItem calls do on one item, turning a panic into the item's error.
func runItem[T any](i int, do func(int) (T, error)) (val T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r}
		}
	}()
	return do(i)
}
