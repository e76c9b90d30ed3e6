package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"hcperf/internal/run"
)

// outcome classifies one request for the phase accounting.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeFailed
	outcomeRefused
	outcomeWrong
)

// status is the part of a run-status response the benchmark checks.
type status struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Digest string `json:"report_digest"`
	Cache  string `json:"cache"`
	Error  string `json:"error"`
}

// transportOutcome maps a response code (or a transport error) to an
// outcome before the body is checked: 429 and 503 are refusals, any other
// non-2xx code or transport error is a failure.
func transportOutcome(code int, err error) outcome {
	switch {
	case err != nil:
		return outcomeFailed
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		return outcomeRefused
	case code < 200 || code > 299:
		return outcomeFailed
	}
	return outcomeOK
}

// checkHit verifies one serve-hit answer against what set-up stored: a 200
// for a finished run, answered by a store tier, whose report digest equals
// the one set-up computed. It returns the tier that answered.
//
// A Volatile report (the overhead experiment) carries wall-clock rows that
// Report.Digest leaves out, so a digest match alone would also accept a
// re-execution with different rows. The tier check is what rules that
// out: the answer must be the stored result, read back from memory or disk.
func checkHit(it *item, code int, body []byte) (string, outcome, error) {
	if code != http.StatusOK {
		return "", outcomeFailed, fmt.Errorf("rank %d: status %d, want 200: %.200s", it.Rank, code, body)
	}
	var st status
	if err := json.Unmarshal(body, &st); err != nil {
		return "", outcomeFailed, fmt.Errorf("rank %d: decode status: %v", it.Rank, err)
	}
	if st.Cache != "memory" && st.Cache != "disk" {
		what := "answer"
		if it.Volatile {
			what = "volatile answer (digest excludes its rows)"
		}
		return st.Cache, outcomeWrong, fmt.Errorf("rank %d: %s from tier %q, want memory or disk", it.Rank, what, st.Cache)
	}
	if st.State != "done" || st.Digest != it.Digest {
		return st.Cache, outcomeWrong, fmt.Errorf("rank %d (%s): state %q digest %q, want done %q",
			it.Rank, it.Class, st.State, st.Digest, it.Digest)
	}
	return st.Cache, outcomeOK, nil
}

// checkRecompute executes req in process with run.Execute and compares its
// report digest with the one the server returned. Volatile reports compare
// on everything but their wall-clock rows, which Report.Digest leaves out.
func checkRecompute(body []byte, served string) error {
	var req run.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	norm, err := req.Normalize()
	if err != nil {
		return err
	}
	res, err := run.Execute(context.Background(), norm)
	if err != nil {
		return fmt.Errorf("recompute %s: %w", norm.Digest(), err)
	}
	want, err := res.Report.Digest()
	if err != nil {
		return err
	}
	if want != served {
		return fmt.Errorf("request %s: server digest %q, in-process run.Execute %q", norm.Digest(), served, want)
	}
	return nil
}
