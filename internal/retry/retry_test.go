package retry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"syscall"
	"testing"
	"time"
)

// TestClassify pins the retry taxonomy: transient transport and
// availability failures retry, request errors and cancellations don't.
func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, Terminal},
		{"conn refused", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, Retryable},
		{"conn reset", &net.OpError{Op: "read", Err: syscall.ECONNRESET}, Retryable},
		{"refused via url.Error", &url.Error{Op: "Post", URL: "http://x",
			Err: &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}}, Retryable},
		{"torn body", io.ErrUnexpectedEOF, Retryable},
		{"eof", io.EOF, Retryable},
		{"http 500", &StatusError{Code: 500, Msg: "boom"}, Retryable},
		{"http 503", &StatusError{Code: 503, Msg: "draining"}, Retryable},
		{"http 429", &StatusError{Code: 429, Msg: "queue full"}, Retryable},
		{"http 400", &StatusError{Code: 400, Msg: "unknown solver"}, Terminal},
		{"http 404", &StatusError{Code: 404, Msg: "no such job"}, Terminal},
		{"wrapped status", fmt.Errorf("submit: %w", &StatusError{Code: 502, Msg: "bad gw"}), Retryable},
		{"canceled", context.Canceled, Terminal},
		{"deadline", context.DeadlineExceeded, Terminal},
		{"plain", errors.New("some application error"), Terminal},
		{"marked retryable", MarkRetryable(errors.New("job parked")), Retryable},
		{"marked terminal", MarkTerminal(io.EOF), Terminal},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStatusErrorMessage pins the wire-compatible rendering callers
// grep for ("unknown solver", ...).
func TestStatusErrorMessage(t *testing.T) {
	err := &StatusError{Code: 400, Msg: "serve: unknown solver \"bogus\""}
	if got := err.Error(); got != "serve: unknown solver \"bogus\" (HTTP 400)" {
		t.Fatalf("message %q", got)
	}
}

// fakeSleep collects requested delays without waiting.
func fakeSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	}
}

// TestDoRetriesUntilSuccess: transient failures retry with backoff and
// the first success wins.
func TestDoRetriesUntilSuccess(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, Seed: 1,
		Sleep: fakeSleep(&delays)}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return &StatusError{Code: 503, Msg: "not yet"}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || len(delays) != 2 {
		t.Fatalf("calls %d delays %d, want 3 and 2", calls, len(delays))
	}
}

// TestDoTerminalStopsImmediately: a 4xx must not burn attempts.
func TestDoTerminalStopsImmediately(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 5, Sleep: fakeSleep(new([]time.Duration))}
	bad := &StatusError{Code: 400, Msg: "unknown solver"}
	err := p.Do(context.Background(), func(context.Context) error { calls++; return bad })
	if calls != 1 {
		t.Fatalf("terminal error retried %d times", calls)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("err %v", err)
	}
	if errors.Is(err, ErrExhausted) {
		t.Fatal("terminal failure reported as exhaustion")
	}
}

// TestDoExhaustion: the attempt budget wraps the last error in
// ErrExhausted.
func TestDoExhaustion(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 3, Sleep: fakeSleep(new([]time.Duration))}
	inner := &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}
	err := p.Do(context.Background(), func(context.Context) error { calls++; return inner })
	if calls != 3 {
		t.Fatalf("%d attempts, want 3", calls)
	}
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("err %v", err)
	}
}

// TestDoZeroValueSingleAttempt: Policy{} must behave like the
// unwrapped call (no retries) so existing call sites keep semantics.
func TestDoZeroValueSingleAttempt(t *testing.T) {
	calls := 0
	err := Policy{}.Do(context.Background(), func(context.Context) error {
		calls++
		return &StatusError{Code: 503, Msg: "transient"}
	})
	if calls != 1 || errors.Is(err, ErrExhausted) {
		t.Fatalf("calls %d err %v", calls, err)
	}
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err %v", err)
	}
}

// TestDelayDeterministicJitter: the backoff schedule is a pure
// function of (seed, attempt) — same seed, same schedule; it grows
// exponentially and respects the cap.
func TestDelayDeterministicJitter(t *testing.T) {
	p1 := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Seed: 42}
	p2 := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Seed: 42}
	other := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Seed: 43}
	differs := false
	for a := 1; a <= 8; a++ {
		d1, d2 := p1.Delay(a), p2.Delay(a)
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", a, d1, d2)
		}
		if d1 != other.Delay(a) {
			differs = true
		}
		step := 100 * time.Millisecond << (a - 1)
		if step > time.Second {
			step = time.Second
		}
		if d1 < step/2 || d1 > step {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", a, d1, step/2, step)
		}
	}
	if !differs {
		t.Fatal("different seeds produced the identical schedule")
	}
}

// TestDoHonorsRetryAfter: a 429 carrying Retry-After waits at least
// that long.
func TestDoHonorsRetryAfter(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, Seed: 7, Sleep: fakeSleep(&delays)}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls == 1 {
			return &StatusError{Code: 429, Msg: "queue full", RetryAfter: 250 * time.Millisecond}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(delays) != 1 || delays[0] < 250*time.Millisecond {
		t.Fatalf("delays %v, want one >= 250ms", delays)
	}
}

// TestDoAttemptTimeoutRetries: an attempt that outlives
// AttemptTimeout is transient; the parent context's expiry is final.
func TestDoAttemptTimeoutRetries(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 3, AttemptTimeout: 5 * time.Millisecond,
		BaseDelay: time.Millisecond, Sleep: fakeSleep(new([]time.Duration))}
	err := p.Do(context.Background(), func(ctx context.Context) error {
		calls++
		if calls < 2 {
			<-ctx.Done() // hang until the attempt deadline fires
			return ctx.Err()
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("err %v calls %d", err, calls)
	}

	// Parent deadline: terminal, no retry.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	calls = 0
	err = p.Do(ctx, func(actx context.Context) error {
		calls++
		<-actx.Done()
		return actx.Err()
	})
	if err == nil || calls != 1 {
		t.Fatalf("parent deadline: err %v calls %d", err, calls)
	}

	// One attempt: the expiry comes back unwrapped but retryable, so a
	// caller's own loop around a single-attempt policy retries it.
	err = Policy{AttemptTimeout: time.Millisecond}.Do(context.Background(), func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrExhausted) || Classify(err) != Retryable {
		t.Fatalf("single attempt: err %v classified %v", err, Classify(err))
	}
}

// TestDoCancelDuringSleep: cancellation between attempts surfaces the
// last real error, not a bare context error.
func TestDoCancelDuringSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond,
		Sleep: func(ctx context.Context, _ time.Duration) error {
			cancel()
			return ctx.Err()
		}}
	inner := &StatusError{Code: 503, Msg: "down"}
	err := p.Do(ctx, func(context.Context) error { return inner })
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 503 {
		t.Fatalf("err %v", err)
	}
}
