package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hcperf/internal/service"
	"hcperf/internal/store"
)

// TestServeLifecycle boots the binary's serve loop on an ephemeral port,
// exercises the cached-vs-uncached submit path and the operational
// endpoints, then cancels the context (the signal path) and requires a
// clean drain.
func TestServeLifecycle(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, ln, service.Config{Workers: 2, QueueSize: 8}, 30*time.Second)
	}()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	if code, body := get("/v1/version"); code != http.StatusOK || !strings.Contains(body, "hcperf") {
		t.Fatalf("version = (%d, %q)", code, body)
	}

	// Submit the fast toy experiment twice: first run executes, the
	// second is answered from the content-addressed cache.
	post := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(base+"/v1/runs", "application/json",
			strings.NewReader(`{"experiment": "fig5"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}
	code, first := post()
	if code != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", code)
	}
	id, _ := first["id"].(string)
	if id == "" {
		t.Fatalf("first POST body %v carries no id", first)
	}
	// Poll until terminal; fig5 is microseconds of work, so this loop
	// turns over almost immediately.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := get("/v1/runs/" + id)
		if code != http.StatusOK {
			t.Fatalf("GET run = %d, body %s", code, body)
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "cancelled" {
			t.Fatalf("run ended %s: %s", st.State, body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run still %s after deadline", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, second := post()
	if code != http.StatusOK || second["cached"] != true {
		t.Fatalf("second POST = (%d, %v), want 200 cached", code, second)
	}
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, `hcperf_store_hits_total{tier="memory"} 1`) {
		t.Fatalf("metrics = (%d), want cache hit visible:\n%s", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof = %d, want 200", code)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want clean drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain")
	}

	// The listener is gone after drain.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still answering after drain")
	}
}

// TestServeStorePersistsAcrossRestart boots the serve loop twice over one
// -store directory: a run completed by the first process must be answered
// by the second from the disk tier (X-HCPerf-Cache: disk) without
// re-executing — the binary-level restart-persistence contract the CI
// smoke also exercises end to end.
func TestServeStorePersistsAcrossRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	openStore := func() *store.Disk {
		t.Helper()
		d, err := store.OpenDisk(dir, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	boot := func(d *store.Disk) (string, context.CancelFunc, chan error) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- serve(ctx, ln, service.Config{Workers: 1, QueueSize: 8, Disk: d}, 30*time.Second)
		}()
		return "http://" + ln.Addr().String(), cancel, done
	}
	post := func(base string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(base+"/v1/runs", "application/json",
			strings.NewReader(`{"experiment": "fig5"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp, m
	}

	base, cancel, done := boot(openStore())
	resp, body := post(base)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", resp.StatusCode)
	}
	id, _ := body["id"].(string)
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(base + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run still %s after deadline", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("first serve drain: %v", err)
	}

	// The restarted process answers the identical submission from disk.
	base2, cancel2, done2 := boot(openStore())
	resp2, body2 := post(base2)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-HCPerf-Cache") != "disk" {
		t.Fatalf("restarted POST = (%d, X-HCPerf-Cache %q), want 200/disk",
			resp2.StatusCode, resp2.Header.Get("X-HCPerf-Cache"))
	}
	if body2["cached"] != true || body2["cache"] != "disk" {
		t.Fatalf("restarted body = %v, want cached:true cache:disk", body2)
	}
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("second serve drain: %v", err)
	}
}

// TestServeZeroDrainTerminates pins the drain-deadline edge: even with a
// zero drain budget (the shutdown contexts are born expired) the serve
// loop must still terminate rather than hang.
func TestServeZeroDrainTerminates(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, ln, service.Config{Workers: 1, QueueSize: 1}, 0)
	}()
	base := "http://" + ln.Addr().String()
	if _, err := http.Get(base + "/healthz"); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	cancel()
	select {
	case <-done:
		// Nil (the idle manager drained before the expired context was
		// consulted) and a deadline error are both acceptable; only a
		// hang is a bug.
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not terminate under a zero drain budget")
	}
}
