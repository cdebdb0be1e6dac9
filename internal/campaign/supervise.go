package campaign

import (
	"time"

	"numaperf/internal/probenet"
)

// Supervisor executes fallible work under a wall-clock timeout with
// panic recovery and deterministic capped-backoff retries. The campaign
// Runner supervises every cell with one; cmd/twostep wraps its training
// collection phases with one directly.
type Supervisor struct {
	// Timeout bounds one attempt; 0 disables the wall clock (the op
	// budget then being the only bound). A timed-out attempt's goroutine
	// is abandoned, never joined — a hung run cannot stall the caller —
	// and its late result is discarded.
	Timeout time.Duration
	// MaxRetries is the number of re-attempts after the first failure.
	MaxRetries int
	// Backoff yields the delay before each retry; nil uses the probenet
	// defaults (50 ms base, 2 s cap) with seed 0.
	Backoff *probenet.Backoff
	// Sleep is the delay function, replaceable in tests; nil uses
	// time.Sleep.
	Sleep func(time.Duration)
}

// NewSupervisor builds a supervisor with the campaign's default retry
// policy and a deterministic backoff seeded for reproducible retry
// timing. timeout ≤ 0 disables the wall clock; maxRetries ≤ 0 disables
// retries.
func NewSupervisor(timeout time.Duration, maxRetries int, seed int64) *Supervisor {
	if maxRetries < 0 {
		maxRetries = 0
	}
	return &Supervisor{
		Timeout:    timeout,
		MaxRetries: maxRetries,
		Backoff:    probenet.NewBackoff(0, 0, seed),
	}
}

// attemptResult carries one attempt's outcome through a channel owned
// by that attempt alone, so an abandoned (timed-out) attempt can never
// race with a retry.
type attemptResult[T any] struct {
	val T
	err error
}

// Do runs fn under the supervisor's policy and returns the value and
// error of the last attempt plus the number of attempts made. A
// panicking fn yields a *PanicError; an attempt outliving Timeout
// yields a *TimeoutError.
func Do[T any](s *Supervisor, fn func() (T, error)) (val T, attempts int, err error) {
	backoff := s.Backoff
	if backoff == nil {
		backoff = probenet.NewBackoff(0, 0, 0)
	}
	sleep := s.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	for attempt := 0; ; attempt++ {
		val, err = attemptOnce(s.Timeout, fn)
		attempts = attempt + 1
		if err == nil || attempt >= s.MaxRetries || !retryable(err) {
			return val, attempts, err
		}
		sleep(backoff.Delay(attempt))
	}
}

// Do is the result-free convenience form.
func (s *Supervisor) Do(fn func() error) (attempts int, err error) {
	_, attempts, err = Do(s, func() (struct{}, error) { return struct{}{}, fn() })
	return attempts, err
}

// attemptOnce executes fn once, recovering panics and enforcing the
// timeout. The result channel is buffered so an abandoned goroutine
// delivers its late result into the void and exits instead of leaking.
func attemptOnce[T any](timeout time.Duration, fn func() (T, error)) (T, error) {
	done := make(chan attemptResult[T], 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				var zero T
				done <- attemptResult[T]{val: zero, err: &PanicError{Value: r}}
			}
		}()
		v, err := fn()
		done <- attemptResult[T]{val: v, err: err}
	}()
	if timeout <= 0 {
		r := <-done
		return r.val, r.err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.val, r.err
	case <-timer.C:
		var zero T
		return zero, &TimeoutError{After: timeout}
	}
}
