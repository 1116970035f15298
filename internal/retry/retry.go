// Package retry is the fault-tolerance policy engine behind remote
// dispatch: capped exponential backoff with deterministic jitter,
// per-attempt timeouts, an attempt budget, and transport-aware error
// classification. The solve plane's leaves are idempotent — the
// daemon's fingerprint-keyed result cache answers a resubmitted
// (graph, seed) pair with the identical cut — so retrying is always
// safe; this package decides WHEN retrying is worth it and when to
// fail fast instead.
//
// Determinism: jitter derives from (Policy.Seed, attempt index)
// through internal/rng, never from the wall clock, so a replayed
// chaos run backs off on the identical schedule.
package retry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"

	"qaoa2/internal/rng"
)

// Class is an error's retry verdict.
type Class int

const (
	// Terminal errors will not improve on retry: validation rejections
	// (4xx), unknown solver names, context cancellation.
	Terminal Class = iota
	// Retryable errors are transient transport or availability
	// failures: connection refused/reset, 5xx, 429, torn streams.
	Retryable
)

// StatusError carries a non-2xx HTTP response through the classifier:
// 5xx and 429 are retryable (the endpoint may recover), other 4xx are
// terminal (the request itself is wrong).
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// Msg is the error text the response body carried.
	Msg string
	// RetryAfter is the server's Retry-After hint (0 = none); Do waits
	// at least this long before the next attempt.
	RetryAfter time.Duration
}

// Error implements error, preserving the serve client's historical
// "<body> (HTTP <code>)" rendering.
func (e *StatusError) Error() string { return fmt.Sprintf("%s (HTTP %d)", e.Msg, e.Code) }

// ErrExhausted wraps the last error once Do's attempt budget runs out;
// wrap-aware (errors.Is).
var ErrExhausted = errors.New("retry: budget exhausted")

// marked forces a classification onto a wrapped error (MarkRetryable /
// MarkTerminal).
type marked struct {
	err   error
	class Class
}

func (m *marked) Error() string { return m.err.Error() }
func (m *marked) Unwrap() error { return m.err }

// MarkRetryable wraps err so Classify reports it Retryable regardless
// of its shape (e.g. a parked job that a resubmission will resume).
func MarkRetryable(err error) error { return &marked{err: err, class: Retryable} }

// MarkTerminal wraps err so Classify reports it Terminal.
func MarkTerminal(err error) error { return &marked{err: err, class: Terminal} }

// Classify maps an error onto the retry taxonomy:
//
//   - explicit marks win;
//   - context cancellation/expiry is terminal (the caller gave up —
//     Do marks an expired per-attempt deadline retryable);
//   - HTTP 5xx and 429 are retryable, other statuses terminal;
//   - connection refused/reset, torn reads (EOF mid-response), and
//     net.Error transport failures are retryable;
//   - everything else is terminal.
func Classify(err error) Class {
	if err == nil {
		return Terminal
	}
	var m *marked
	if errors.As(err, &m) {
		return m.class
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Terminal
	}
	var se *StatusError
	if errors.As(err, &se) {
		if se.Code >= 500 || se.Code == 429 {
			return Retryable
		}
		return Terminal
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return Retryable
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return Retryable
	}
	return Terminal
}

// Policy shapes one retried operation. The zero value performs a
// single attempt (no retries), so wrapping existing call sites in
// Policy{}.Do changes nothing until knobs are set.
type Policy struct {
	// MaxAttempts bounds tries, first included (0 or 1 = no retry).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms when
	// retries are enabled); MaxDelay caps its growth (default 2s).
	BaseDelay, MaxDelay time.Duration
	// AttemptTimeout bounds each individual try of Do (0 = none). An
	// attempt that hits it is retryable; the PARENT context's deadline
	// stays terminal.
	AttemptTimeout time.Duration
	// Seed drives the deterministic jitter stream.
	Seed uint64

	// Sleep waits between attempts (tests inject; default
	// time.After/context select).
	Sleep func(ctx context.Context, d time.Duration) error
}

// Default returns the dispatch-layer policy remote leaf solves use: 4
// attempts, 50ms..2s capped backoff, 10s per attempt.
func Default(seed uint64) Policy {
	return Policy{
		MaxAttempts:    4,
		BaseDelay:      50 * time.Millisecond,
		MaxDelay:       2 * time.Second,
		AttemptTimeout: 10 * time.Second,
		Seed:           seed,
	}
}

// Delay returns the deterministic backoff before attempt+1 given that
// `attempt` (1-based) just failed: capped exponential growth jittered
// into [50%, 100%] of the step by a pure function of (Seed, attempt).
func (p Policy) Delay(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	cap := p.MaxDelay
	if cap <= 0 {
		cap = 2 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	u := rng.New(p.Seed).Split(uint64(attempt)).Float64()
	return time.Duration(float64(d) * (0.5 + 0.5*u))
}

func (p Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do runs op under the policy: attempts are classified, and retryable
// failures back off and try again within the attempt budget. The
// returned error wraps the last attempt's failure; errors.Is
// distinguishes ErrExhausted (budget ran out retrying) from terminal
// failures passed through unchanged.
func (p Policy) Do(ctx context.Context, op func(context.Context) error) error {
	for attempt := 1; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		}
		err := op(actx)
		cancel()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The caller's context expired or was canceled: terminal
			// regardless of the attempt error's shape.
			return err
		}
		if p.AttemptTimeout > 0 && errors.Is(err, context.DeadlineExceeded) {
			// An attempt-timeout expiry is transient by construction
			// (the parent context is still live), also to a caller's
			// own loop around a single-attempt policy.
			err = MarkRetryable(err)
		}
		if stop := p.Backoff(ctx, attempt, err); stop != nil {
			return stop
		}
	}
}

// Backoff is the step after failed attempt number attempt (1-based)
// of any retry loop under the policy. It returns the error to give up
// with: err itself when the caller's context is done or err is
// terminal, err wrapped in ErrExhausted when that was the last
// attempt. Otherwise it waits out the backoff — at least the server's
// Retry-After hint — and returns nil to try again.
func (p Policy) Backoff(ctx context.Context, attempt int, err error) error {
	if ctx.Err() != nil || Classify(err) == Terminal {
		return err
	}
	attempts := max(p.MaxAttempts, 1)
	if attempt >= attempts {
		if attempts == 1 {
			// No retries were configured: pass the error through
			// unwrapped so zero-Policy call sites keep their
			// historical error shape.
			return err
		}
		return fmt.Errorf("%w after %d attempts: %w", ErrExhausted, attempt, err)
	}
	delay := p.Delay(attempt)
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter > delay {
		// Honor the server's Retry-After hint when it asks for more
		// patience than the backoff schedule: a draining daemon or a
		// deep queue knows its own recovery horizon.
		delay = se.RetryAfter
	}
	if p.sleep(ctx, delay) != nil {
		return err
	}
	return nil
}
