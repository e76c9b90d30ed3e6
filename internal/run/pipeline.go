package run

import (
	"context"

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

// Pipeline is the store-then-execute path of the CLI's sim/spec/tune/suite
// modes: normalize → digest → disk tier → execute → persist. The HTTP
// service's job manager runs the same stages through LoadDisk, Execute and
// SaveDisk, with its memory tier, queue and singleflight dedup in front.
type Pipeline struct {
	// Disk is the persistent tier; nil disables persistence.
	Disk *store.Disk
	// Exec computes a result on a miss; nil means Execute.
	Exec Func
}

// Run takes a raw request through the full pipeline and reports which tier
// satisfied it. The request is normalized and digested here, so every
// caller shares one digest namespace; on a miss the computed result is
// written back to the disk tier (best-effort). Run computes the report
// digest only in that write-back, so a pipeline without a store never pays
// for it.
func (p *Pipeline) Run(ctx context.Context, req Request) (*Result, store.Tier, string, error) {
	req, err := req.Normalize()
	if err != nil {
		return nil, store.TierMiss, "", err
	}
	digest := req.Digest()
	if res, ok := LoadDisk(p.Disk, digest); ok {
		return res, store.TierDisk, digest, nil
	}
	exec := p.Exec
	if exec == nil {
		exec = Execute
	}
	res, err := exec(ctx, req)
	if err != nil {
		return nil, store.TierMiss, digest, err
	}
	// Persistence failures (full disk, lost volume) must not fail the run.
	_ = SaveDisk(p.Disk, digest, res)
	return res, store.TierMiss, digest, nil
}
