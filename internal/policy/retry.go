package policy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrBudgetExhausted is reported (wrapped around the last attempt's
// error) when a retry was wanted but the global retry budget had no
// tokens left.
var ErrBudgetExhausted = errors.New("policy: retry budget exhausted")

// Budget is a global retry budget: every fresh (first-attempt) request
// deposits Ratio tokens and every retry withdraws one, so across any
// window retries cannot exceed ~Ratio of fresh load no matter how many
// callers are failing. This is the amplification cap that keeps a
// brown-out from turning into a retry storm: with the default ratio 0.1,
// a fully failing backend sees at most 10% extra traffic from retries.
type Budget struct {
	mu     sync.Mutex
	ratio  float64
	cap    float64
	tokens float64
}

// NewBudget builds a budget crediting ratio tokens per fresh request
// (default 0.1), banking at most capTokens (default 10). The bank starts
// full so a cold process can retry its first few failures.
func NewBudget(ratio, capTokens float64) *Budget {
	if ratio <= 0 {
		ratio = 0.1
	}
	if capTokens <= 0 {
		capTokens = 10
	}
	return &Budget{ratio: ratio, cap: capTokens, tokens: capTokens}
}

// Deposit credits the budget for one fresh request.
func (b *Budget) Deposit() {
	b.mu.Lock()
	if b.tokens += b.ratio; b.tokens > b.cap {
		b.tokens = b.cap
	}
	b.mu.Unlock()
}

// Withdraw spends one token for a retry, reporting whether one was
// available.
func (b *Budget) Withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Do stops retrying immediately and returns it.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// RetryConfig shapes one Do call.
type RetryConfig struct {
	// Attempts is the total number of attempts including the first
	// (default 3).
	Attempts int
	// BaseDelay seeds the decorrelated-jitter backoff (default 100ms);
	// MaxDelay caps it (default 3s).
	BaseDelay, MaxDelay time.Duration
	// Budget, when non-nil, is the global retry budget: Do deposits once
	// for the fresh attempt and must withdraw a token before every retry.
	Budget *Budget
	// Seed fixes the jitter RNG for deterministic tests (0 = time-seeded).
	Seed int64
	// Sleep waits between attempts (default a ctx-aware timer); tests
	// inject a recorder to pin the jitter bounds without real sleeping.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.Attempts < 1 {
		c.Attempts = 3
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 100 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 3 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do runs op with budgeted, decorrelated-jitter retries: the first
// attempt is free (and deposits into the budget), each retry needs a
// budget token, and the delay before retry i is drawn uniformly from
// [BaseDelay, 3·previous] capped at MaxDelay — the "decorrelated jitter"
// schedule, which spreads synchronized retry waves apart instead of
// letting every client hammer on the same exponential boundaries.
//
// Do stops early on success, on a Permanent-wrapped error, on context
// cancellation, or when the budget is exhausted (returning the last
// error wrapped with ErrBudgetExhausted).
func Do(ctx context.Context, cfg RetryConfig, op func(ctx context.Context) error) error {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Budget != nil {
		cfg.Budget.Deposit()
	}

	delay := cfg.BaseDelay
	var err error
	for attempt := 0; attempt < cfg.Attempts; attempt++ {
		if attempt > 0 {
			if cfg.Budget != nil && !cfg.Budget.Withdraw() {
				return fmt.Errorf("%w after %d attempts: %w", ErrBudgetExhausted, attempt, err)
			}
			// Decorrelated jitter: uniform in [base, 3·previous], capped.
			lo, hi := float64(cfg.BaseDelay), 3*float64(delay)
			delay = time.Duration(lo + rng.Float64()*(hi-lo))
			if delay > cfg.MaxDelay {
				delay = cfg.MaxDelay
			}
			if serr := cfg.Sleep(ctx, delay); serr != nil {
				return errors.Join(serr, err)
			}
		}
		if err = op(ctx); err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if ctx.Err() != nil {
			return errors.Join(ctx.Err(), err)
		}
	}
	return err
}
