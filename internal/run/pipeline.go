package run

import (
	"context"

	"hcperf/internal/policy"
	"hcperf/internal/store"
)

// LoadDisk reads the result for digest from the disk tier. A stored entry
// that fails to decode or fails its integrity check is quarantined and
// counted as a disk miss and a corrupt entry, so it is recomputed rather
// than served; the caller sees a plain miss either way.
func LoadDisk(d *store.Disk, digest string) (*Result, bool) {
	if d == nil {
		return nil, false
	}
	var res *Result
	ok := d.Load(digest, func(data []byte) (err error) {
		res, err = DecodeResult(digest, data)
		return err
	})
	return res, ok
}

// SaveDisk writes a completed result to the disk tier, computing its
// report digest memo for the entry to carry (nothing is computed when d is
// nil). Persistence is an optimization, not a correctness requirement, so
// callers treat the returned error as log-and-continue.
func SaveDisk(d *store.Disk, digest string, res *Result) error {
	if d == nil {
		return nil
	}
	data, err := EncodeResult(digest, res)
	if err != nil {
		return err
	}
	return d.Put(digest, data)
}

// Pipeline is the one normalize → digest → lookup → execute → persist
// path every entry point shares: the CLI's sim/spec/tune/suite modes, the
// HTTP service's run and optimize handlers (via its job manager, which
// layers queueing and dedup on the same tiers) and the sweep fan-out.
type Pipeline struct {
	// Lookup consults the caller's memory tier (the serving layer's job
	// map; nil for the CLI, which has no resident results).
	Lookup func(digest string) (*Result, bool)
	// Disk is the persistent tier; nil disables persistence.
	Disk *store.Disk
	// Metrics counts memory-tier lookups (the disk tier counts its own
	// through Disk). Nil disables counting.
	Metrics *store.Metrics
	// Exec computes a result on a full miss; nil means Execute.
	Exec Func
	// Breaker, when non-nil, guards the execute stage only: cache and disk
	// hits always flow (serving stored bytes cannot hurt a sick runner),
	// while fresh executions are short-circuited with ErrBreakerOpen when
	// the breaker is open and their outcomes feed its error-rate window.
	Breaker *policy.Breaker
}

// Run takes a raw request through the full pipeline and reports which tier
// satisfied it. The request is normalized and digested here, so every
// caller shares one digest namespace; on a full miss the computed result
// is written back to the disk tier (best-effort). Run computes the report
// digest only in that write-back, so a pipeline without a store never
// pays for it.
func (p *Pipeline) Run(ctx context.Context, req Request) (*Result, store.Tier, string, error) {
	req, err := req.Normalize()
	if err != nil {
		return nil, store.TierMiss, "", err
	}
	digest := req.Digest()
	if p.Lookup != nil {
		if res, ok := p.Lookup(digest); ok {
			if p.Metrics != nil {
				p.Metrics.MemoryHits.Add(1)
			}
			return res, store.TierMemory, digest, nil
		}
		if p.Metrics != nil {
			p.Metrics.MemoryMisses.Add(1)
		}
	}
	if res, ok := LoadDisk(p.Disk, digest); ok {
		return res, store.TierDisk, digest, nil
	}
	exec := p.Exec
	if exec == nil {
		exec = Execute
	}
	var breakerDone func(policy.Outcome)
	if p.Breaker != nil {
		var berr error
		if breakerDone, berr = p.Breaker.Allow(); berr != nil {
			return nil, store.TierMiss, digest, berr
		}
	}
	res, err := exec(ctx, req)
	policy.Observe(breakerDone, err)
	if err != nil {
		return nil, store.TierMiss, digest, err
	}
	// Persistence failures (full disk, lost volume) must not fail the run.
	_ = SaveDisk(p.Disk, digest, res)
	return res, store.TierMiss, digest, nil
}
