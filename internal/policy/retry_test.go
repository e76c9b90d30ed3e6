package policy

import (
	"context"
	"errors"
	"testing"
	"time"
)

// sleepRecorder captures backoff delays without real sleeping.
type sleepRecorder struct{ delays []time.Duration }

func (s *sleepRecorder) Sleep(_ context.Context, d time.Duration) error {
	s.delays = append(s.delays, d)
	return nil
}

var errTransient = errors.New("transient")

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	rec := &sleepRecorder{}
	calls := 0
	err := Do(context.Background(), RetryConfig{Attempts: 3, Seed: 1, Sleep: rec.Sleep}, func(context.Context) error {
		if calls++; calls < 3 {
			return errTransient
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if len(rec.delays) != 2 {
		t.Errorf("slept %d times, want 2", len(rec.delays))
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	rec := &sleepRecorder{}
	calls := 0
	err := Do(context.Background(), RetryConfig{Attempts: 4, Seed: 1, Sleep: rec.Sleep}, func(context.Context) error {
		calls++
		return errTransient
	})
	if !errors.Is(err, errTransient) {
		t.Fatalf("err = %v, want the last attempt's error", err)
	}
	if calls != 4 {
		t.Errorf("calls = %d, want 4", calls)
	}
}

func TestDecorrelatedJitterBounds(t *testing.T) {
	base, max := 100*time.Millisecond, 2*time.Second
	rec := &sleepRecorder{}
	_ = Do(context.Background(), RetryConfig{
		Attempts: 10, BaseDelay: base, MaxDelay: max, Seed: 42, Sleep: rec.Sleep,
	}, func(context.Context) error { return errTransient })

	if len(rec.delays) != 9 {
		t.Fatalf("slept %d times, want 9", len(rec.delays))
	}
	prev := base
	for i, d := range rec.delays {
		if d < base || d > max {
			t.Errorf("delay %d = %v outside [%v, %v]", i, d, base, max)
		}
		// Decorrelated jitter: each delay is drawn from [base, 3·previous]
		// (before the cap), so it can never exceed 3× its predecessor.
		if limit := 3 * prev; d > limit && d != max {
			t.Errorf("delay %d = %v exceeds 3×previous (%v)", i, d, limit)
		}
		prev = d
	}

	// Same seed, same schedule: the jitter is deterministic for tests.
	rec2 := &sleepRecorder{}
	_ = Do(context.Background(), RetryConfig{
		Attempts: 10, BaseDelay: base, MaxDelay: max, Seed: 42, Sleep: rec2.Sleep,
	}, func(context.Context) error { return errTransient })
	for i := range rec.delays {
		if rec.delays[i] != rec2.delays[i] {
			t.Errorf("delay %d differs across seeded runs: %v vs %v", i, rec.delays[i], rec2.delays[i])
		}
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	rec := &sleepRecorder{}
	// Bank of 1: the deposit (0.1, capped) plus the initial token funds
	// exactly one retry; the second retry hits the empty bank.
	budget := NewBudget(0.1, 1)
	calls := 0
	err := Do(context.Background(), RetryConfig{
		Attempts: 5, Seed: 1, Budget: budget, Sleep: rec.Sleep,
	}, func(context.Context) error {
		calls++
		return errTransient
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if !errors.Is(err, errTransient) {
		t.Errorf("err = %v; the last attempt's error must ride along", err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (first attempt + one budgeted retry)", calls)
	}
}

func TestRetryBudgetCapsAmplification(t *testing.T) {
	// 100 fresh, always-failing calls against a 10%-ratio budget with a
	// bank of 10: total retries are bounded by bank + ratio×fresh = 20,
	// i.e. amplification can never exceed ~10% of fresh load plus the
	// fixed bank, no matter how many attempts each call wants.
	budget := NewBudget(0.1, 10)
	rec := &sleepRecorder{}
	total := 0
	for i := 0; i < 100; i++ {
		_ = Do(context.Background(), RetryConfig{
			Attempts: 5, Seed: int64(i + 1), Budget: budget, Sleep: rec.Sleep,
		}, func(context.Context) error {
			total++
			return errTransient
		})
	}
	if retries := total - 100; retries > 20 {
		t.Errorf("retries = %d; budget must cap amplification at 20", retries)
	}
	if total < 100 {
		t.Errorf("total = %d; every fresh attempt must run", total)
	}
}

func TestPermanentStopsImmediately(t *testing.T) {
	calls := 0
	inner := errors.New("bad request")
	err := Do(context.Background(), RetryConfig{Attempts: 5, Seed: 1, Sleep: (&sleepRecorder{}).Sleep}, func(context.Context) error {
		calls++
		return Permanent(inner)
	})
	if !errors.Is(err, inner) {
		t.Fatalf("err = %v, want the permanent inner error", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (permanent errors never retry)", calls)
	}
}

func TestRetryStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Do(ctx, RetryConfig{Attempts: 5, Seed: 1, Sleep: sleepCtx}, func(context.Context) error {
		calls++
		cancel()
		return errTransient
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}
