package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hcperf/internal/experiment"
	"hcperf/internal/run"
)

// postRaw POSTs body to path through h and returns the status code and
// the response body.
func postRaw(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// memoCounts reads the request-body memo's hit and miss counters.
func memoCounts(srv *Server) (hits, misses uint64) {
	return srv.mgr.metrics.MemoHits.Load(), srv.mgr.metrics.MemoMisses.Load()
}

// TestMemoAdmitsOnSecondSighting: a body enters the memo on its second
// sighting and is answered from it on its third, with the same id and
// request each time; a body seen once holds no entry, and /metrics counts
// the lookups by result.
func TestMemoAdmitsOnSecondSighting(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Run: newFakeRunner(false).Run})
	body := `{"scenario": "carfollow", "scheme": "edf", "seed": 5}`
	var first runStatus
	for i := 1; i <= 3; i++ {
		code, st, _ := postRun(t, ts, body)
		if code >= 300 {
			t.Fatalf("send %d: status %d", i, code)
		}
		if i == 1 {
			first = st
		} else if st.ID != first.ID || !sameRequest(st.Request, first.Request) {
			t.Fatalf("send %d answered %s %+v, first send %s %+v", i, st.ID, st.Request, first.ID, first.Request)
		}
		wantHits := uint64(0)
		if i == 3 {
			wantHits = 1
		}
		if hits, misses := memoCounts(srv); hits != wantHits || misses != uint64(min(i, 2)) {
			t.Fatalf("after send %d: memo hits=%d misses=%d, want %d/%d", i, hits, misses, wantHits, min(i, 2))
		}
	}
	for seed := 100; seed < 110; seed++ {
		postRun(t, ts, fmt.Sprintf(`{"scenario": "carfollow", "seed": %d}`, seed))
	}
	if n := srv.memo.order.Len(); n != 1 {
		t.Errorf("memo holds %d entries after ten bodies seen once, want 1", n)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`hcperf_request_memo_total{result="hit"} 1`, `hcperf_request_memo_total{result="miss"} 12`} {
		if !strings.Contains(string(raw), want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestMemoBoundedByBytes: the memo charges its entries against
// memoBudget and evicts the least recently used.
func TestMemoBoundedByBytes(t *testing.T) {
	m := newBodyMemo()
	req, err := RunRequest{Scenario: "carfollow"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat(" ", 4<<10)
	body := func(i int) []byte { return []byte(fmt.Sprintf(`{"scenario": "carfollow"}%s%d`, pad, i)) }
	for i := 0; i < 400; i++ {
		for range 2 {
			m.offer(body(i), req, req.Digest())
		}
		if m.lookup(body(0)) == nil {
			t.Fatalf("entry 0, looked up after every admission, evicted by entry %d", i)
		}
	}
	if m.charged > memoBudget {
		t.Errorf("memo charges %d bytes, budget %d", m.charged, memoBudget)
	}
	if m.lookup(body(1)) != nil || m.lookup(body(399)) == nil {
		t.Error("memo evicted other than its least recently used entries")
	}
}

// TestMemoSeenTableUsesEverySlot: the hashes of bodies seen once fill
// even and odd slots of the seen table alike, though offer forces each
// hash odd.
func TestMemoSeenTableUsesEverySlot(t *testing.T) {
	m := newBodyMemo()
	var req RunRequest
	for i := 0; i < memoSeenSlots; i++ {
		m.offer([]byte(fmt.Sprintf(`{"seed": %d}`, i)), req, "")
	}
	var filled [2]int
	for slot, h := range m.seen {
		if h != 0 {
			filled[slot%2]++
		}
	}
	// 4,096 random hashes fill about 63% of 4,096 slots, half of them even.
	for parity, n := range filled {
		if n < memoSeenSlots/4 {
			t.Errorf("%d of %d slots with parity %d filled after %d bodies, want at least %d", n, memoSeenSlots/2, parity, memoSeenSlots, memoSeenSlots/4)
		}
	}
}

// TestMemoChangesNoAnswer: bodies the memo never holds are answered as
// without it. A malformed body gets the same 400 bytes every time, and a
// body longer than memoMaxBody is decoded as a stream, whole.
func TestMemoChangesNoAnswer(t *testing.T) {
	srv := New(Config{Workers: 1, Run: newFakeRunner(false).Run})
	t.Cleanup(func() { _ = srv.Manager().Shutdown(context.Background()) })
	h := srv.Handler()
	for _, body := range []string{
		`{"experiment": "fig5"`,
		`{"experiment": "fig5", "bogus": 1}`,
		`{"experiment": "nope"}`,
		`{"experiment": "fig5"` + strings.Repeat(" ", memoMaxBody) + `, "bogus": 1}`,
	} {
		code, first := postRaw(h, "/v1/runs", []byte(body))
		if code != http.StatusBadRequest {
			t.Fatalf("%.40q: status %d, want 400", body, code)
		}
		for range 2 {
			if code, again := postRaw(h, "/v1/runs", []byte(body)); code != http.StatusBadRequest || !bytes.Equal(again, first) {
				t.Fatalf("%.40q answered %d %q, first %q", body, code, again, first)
			}
		}
	}
	long := `{"experiment": "fig5",` + strings.Repeat(" ", memoMaxBody) + `"seed": 3}`
	for range 3 {
		code, raw := postRaw(h, "/v1/runs", []byte(long))
		var st runStatus
		if err := json.Unmarshal(raw, &st); code >= 300 || err != nil || st.Request.Seed != 3 {
			t.Fatalf("long body: status %d, request %+v (%v)", code, st.Request, err)
		}
	}
	if n := srv.memo.order.Len(); n != 0 {
		t.Errorf("memo holds %d entries, want none", n)
	}
}

// TestMemoRequestSharedAcrossJobs: real runs of two spec bodies through a
// memory tier of one, so every repeat of a body after its admission makes
// a new job from the memo's one normalized request while other jobs run
// and render theirs. Under -race this shows that nothing modifies a
// normalized request.
func TestMemoRequestSharedAcrossJobs(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, CacheSize: 1})
	bodies := []string{
		`{"spec": {"scenario": "carfollow", "scheme": "hcperf", "duration": 1, "seed": 1}}`,
		`{"spec": {"scenario": "lanekeep", "scheme": "edf", "duration": 1, "seed": 2}}`,
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(bodies[(g+i)%2]))
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 300 && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("status %d", resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	if hits, _ := memoCounts(srv); hits == 0 {
		t.Error("no body was answered from the memo")
	}
}

// TestRenderRestoredResultAllocs: a job restored from disk for a body the
// memo holds renders neither its report, which comes from the entry, nor
// its request, which comes from the memo: its first answer, like every
// answer of a resident result (TestRenderResidentResultAllocs), allocates
// nothing into a reused buffer.
func TestRenderRestoredResultAllocs(t *testing.T) {
	d := openServiceDisk(t, filepath.Join(t.TempDir(), "results"))
	for seed := int64(1); seed <= 2; seed++ {
		req := expReq(t, seed)
		res, err := Execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.SaveDisk(d, req.Digest(), res); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(Config{Workers: 1, CacheSize: 1, Disk: d, Run: func(context.Context, RunRequest) (*RunResult, error) {
		return nil, fmt.Errorf("executed; want every answer from a store tier")
	}})
	t.Cleanup(func() { _ = srv.Manager().Shutdown(context.Background()) })
	h := srv.Handler()
	body := []byte(`{"experiment": "fig5"}`)
	for _, b := range [][]byte{body, body, []byte(`{"experiment": "fig5", "seed": 2}`)} {
		if code, raw := postRaw(h, "/v1/runs", b); code != http.StatusOK {
			t.Fatalf("%s: status %d %s", b, code, raw)
		}
	}
	// The body is in the memo, and its job has left the memory tier.
	sub := srv.memo.lookup(body)
	if sub == nil {
		t.Fatal("body not admitted on its second sighting")
	}
	j, outcome, err := srv.mgr.submit(sub)
	if err != nil || outcome != SubmitCachedDisk {
		t.Fatalf("submit = (%v, %v), want a disk restore", outcome, err)
	}
	snap := j.Snapshot()
	buf := make([]byte, 0, 1<<14)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	request, err := j.requestJSON()
	if err != nil {
		t.Fatal(err)
	}
	out, err := appendStatus(buf[:0], snap, request, -1, submitted(outcome))
	runtime.ReadMemStats(&after)
	if err != nil || !bytes.Contains(out, []byte(`"cache": "disk"`)) {
		t.Fatalf("render = %q, %v; want a disk answer", out, err)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("first answer of a restored job allocated %d times, want 0", n)
	}
}

// FuzzHandlers POSTs arbitrary bodies to /v1/runs, /v1/sweeps and
// /v1/optimize of a server with a fake RunFunc: each is answered 2xx or
// 4xx, never 5xx, and nothing panics. A /v1/runs body is sent three times,
// so that it enters the memo on the second and is answered from it on the
// third: a body answered 400 is answered 400 again with the same bytes,
// and a body answered 2xx is answered 2xx again with the same id and
// request.
func FuzzHandlers(f *testing.F) {
	for _, body := range []string{
		`{"experiment":"fig13"}`,
		`{"scenario":"carfollow","scheme":"edfvd","seed":918273645,"duration":8}`,
		`{"scenario":"hardware","scheme":"hcperf","trace":true}`,
		`{"spec":{"duration":4,"fleet":{"brake_obstacles":14,"brake_threshold":2,"coupling":"platoon","n":4,"spacing":18},"name":"platoon-fleet","scenario":"carfollow","scheme":"hcperf","seed":908142986494}}`,
		`{"experiment":"fig5"} trailing garbage`,
		`{"experiment":"fig5"}{"experiment":"fig4"}`,
		`{"experiment":"fig5","bogus":1}`,
		`{"spec":{"scenario":"carfollow","bogus":true}}`,
		`{"experiment":"fig5",` + strings.Repeat(" ", memoMaxBody) + `"seed":2}`,
		`{"template":{"scenario":"carfollow","duration":2},"grid":{"seed":[1,2,3]}}`,
		`{"spec":{"scenario":"carfollow"},"space":{},"budget":2}`,
		``, `null`, `[]`, `{}`,
	} {
		for path := range uint8(3) {
			f.Add(path, []byte(body))
		}
	}
	srv := New(Config{Workers: 2, QueueSize: 256, Run: func(_ context.Context, req RunRequest) (*RunResult, error) {
		return &RunResult{Report: &experiment.Report{ID: req.Kind(), Title: "fuzz"}}, nil
	}})
	f.Cleanup(func() { _ = srv.Manager().Shutdown(context.Background()) })
	h := srv.Handler()
	paths := []string{"/v1/runs", "/v1/sweeps", "/v1/optimize"}
	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		target := paths[int(path)%len(paths)]
		code, first := postRaw(h, target, body)
		if code < 200 || code >= 500 {
			t.Fatalf("POST %s %q: status %d %s", target, body, code, first)
		}
		if target != "/v1/runs" || code == http.StatusTooManyRequests {
			return
		}
		var want runStatus
		if code < 300 {
			if err := json.Unmarshal(first, &want); err != nil {
				t.Fatalf("2xx body %q: %v", first, err)
			}
		}
		for send := 2; send <= 3; send++ {
			again, raw := postRaw(h, target, body)
			switch {
			case code == http.StatusBadRequest:
				if again != code || !bytes.Equal(raw, first) {
					t.Fatalf("send %d of %q: %d %q, first %d %q", send, body, again, raw, code, first)
				}
			case code < 300:
				var got runStatus
				if again >= 300 || json.Unmarshal(raw, &got) != nil || got.ID != want.ID || !sameRequest(got.Request, want.Request) {
					t.Fatalf("send %d of %q: %d %s, first %d %s", send, body, again, raw, code, first)
				}
			}
		}
	})
}

// sameRequest compares two decoded requests by their digests, which cover
// every canonical field.
func sameRequest(a, b RunRequest) bool { return a.Digest() == b.Digest() }
